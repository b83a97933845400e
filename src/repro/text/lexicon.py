"""What the online stage keeps of the semantic encoder (§III-B.1).

The reasoner's cold-start fallback embeds a phrase it cannot find in the
Entity Dict and looks up the nearest entities in ``E^Se``. That needs the
encoder's vocabulary and learned token table, and ``E^Se`` itself — not
the transformer, and not the autograd engine it trains with. A
:class:`Lexicon` is those three arrays, produced by the semantic pretrain
and read by :class:`~repro.online.reasoning.GraphReasoner`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.text.tokenizer import WhitespaceTokenizer
from repro.text.vocab import Vocab


def token_average(token_table: np.ndarray, vocab: Vocab, tokens: list[str]) -> np.ndarray:
    """The L2-normalised mean of ``tokens``' rows (zeros for no tokens:
    a blank query is equally (un)similar to every entity)."""
    if not tokens:
        return np.zeros(token_table.shape[1])
    vector = token_table[vocab.encode(tokens)].mean(axis=0)
    return vector / max(np.linalg.norm(vector), 1e-12)


@dataclass(frozen=True)
class Lexicon:
    """The pretrained vocabulary, its ``(V, d)`` token table and ``E^Se``."""

    vocab: Vocab
    token_table: np.ndarray
    e_semantic: np.ndarray

    def encode_text(self, text: str) -> np.ndarray:
        """Embed a query string the way ``E^Se``'s rows were embedded."""
        return token_average(self.token_table, self.vocab, WhitespaceTokenizer().tokenize(text))
