"""Text substrate: vocab, tokenizer, Entity Dict, NER, sequence extraction.

The NER tagger imports the autograd engine, and the sequence extractor
imports the tagger, so their names resolve on first use (PEP 562): the
serving path imports the Entity Dict, the lexicon and
:class:`UserEntitySequence` from this package without loading either.
"""

import importlib

from repro.text.vocab import CLS_TOKEN, MASK_TOKEN, PAD_TOKEN, UNK_TOKEN, Vocab
from repro.text.tokenizer import WhitespaceTokenizer, encode_batch
from repro.text.entity_dict import EntityDict, EntityEntry
from repro.text.user_sequence import UserEntitySequence

_LAZY = {
    "EntitySequenceExtractor": "sequence_extractor",
    **dict.fromkeys(
        (
            "NUM_TAGS", "TAG_B", "TAG_I", "TAG_O", "NERTagger", "NERTrainReport",
            "extract_entities", "make_ner_examples", "spans_from_tags", "train_ner",
        ),
        "ner",
    ),
}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Vocab",
    "PAD_TOKEN",
    "UNK_TOKEN",
    "MASK_TOKEN",
    "CLS_TOKEN",
    "WhitespaceTokenizer",
    "encode_batch",
    "EntityDict",
    "EntityEntry",
    "UserEntitySequence",
    *_LAZY,
]
