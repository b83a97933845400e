"""Telemetry over the one listener: GET/HEAD routing on ``QueryFrontend``,
error envelopes, scrape metrics."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import Observability
from repro.online import EGLSystem
from repro.online.api import JSON_CONTENT_TYPE, PROMETHEUS_CONTENT_TYPE, EGLService
from repro.serving.frontend import QueryFrontend


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers["Content-Type"], response.read()


@pytest.fixture()
def service(world, tmp_path):
    """A service whose route table is four known routes: the listener
    serves whatever ``telemetry_routes()`` hands it."""
    service = EGLService(EGLSystem(world, artifact_root=tmp_path, obs=Observability()))
    routes = {
        "/metrics": lambda: (PROMETHEUS_CONTENT_TYPE, "up 1\n"),
        "/health": lambda: (JSON_CONTENT_TYPE, json.dumps({"ok": True})),
        "/boom": lambda: (_ for _ in ()).throw(RuntimeError("route bug")),
        "/raw": lambda: ("application/octet-stream", b"\x00\x01"),
    }
    service.telemetry_routes = lambda: routes
    return service


@pytest.fixture()
def registry(service):
    return service.obs.metrics


@pytest.fixture()
def server(service):
    with QueryFrontend(service) as srv:
        yield srv


class TestRouting:
    def test_ephemeral_port_bound_and_url(self, server):
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_known_routes_serve_with_content_type(self, server):
        status, ctype, body = _get(server.url + "/metrics")
        assert status == 200
        assert ctype == PROMETHEUS_CONTENT_TYPE
        assert body == b"up 1\n"
        status, ctype, body = _get(server.url + "/health")
        assert status == 200 and ctype == JSON_CONTENT_TYPE
        assert json.loads(body) == {"ok": True}

    def test_trailing_slash_and_query_string_normalised(self, server):
        status, _, body = _get(server.url + "/health/?verbose=1")
        assert status == 200 and json.loads(body) == {"ok": True}

    def test_unknown_path_is_json_404_listing_routes(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        assert err.value.code == 404
        payload = json.loads(err.value.read())
        assert payload["routes"] == ["/boom", "/frontend", "/health", "/metrics", "/raw"]

    def test_route_exception_is_json_500_not_a_dead_thread(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/boom")
        assert err.value.code == 500
        assert "route bug" in json.loads(err.value.read())["error"]
        # The server survives the failed route and keeps serving.
        status, _, _ = _get(server.url + "/metrics")
        assert status == 200

    def test_scrapes_counted_by_path_and_status(self, server, registry):
        _get(server.url + "/metrics")
        _get(server.url + "/metrics")
        for probe in ("/nope", "/wp-login.php"):
            with pytest.raises(urllib.error.HTTPError):
                _get(server.url + probe)
        assert registry.get_value(
            "frontend_http_requests_total", path="/metrics", status="200"
        ) == 2
        # Unknown paths share one label value: a port scan must not mint a
        # metric series per probed path.
        assert registry.get_value(
            "frontend_http_requests_total", path="other", status="404"
        ) == 2
        paths = {
            labels["path"]
            for labels, _ in registry.series("frontend_http_requests_total")
        }
        assert paths == {"/metrics", "other"}


class TestHeadAndContentLength:
    def test_get_carries_content_length(self, server):
        request = urllib.request.Request(server.url + "/metrics")
        with urllib.request.urlopen(request, timeout=5) as response:
            body = response.read()
            assert int(response.headers["Content-Length"]) == len(body)
            assert body == b"up 1\n"

    def test_head_returns_headers_without_body(self, server):
        request = urllib.request.Request(server.url + "/metrics", method="HEAD")
        with urllib.request.urlopen(request, timeout=5) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            # Content-Length advertises the GET body size; the body itself
            # must be absent.
            assert int(response.headers["Content-Length"]) == len(b"up 1\n")
            assert response.read() == b""

    def test_head_unknown_path_is_bodyless_404(self, server):
        request = urllib.request.Request(server.url + "/nope", method="HEAD")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 404
        assert err.value.read() == b""
        assert int(err.value.headers["Content-Length"]) > 0


class TestLifecycle:
    def test_stop_releases_the_port_and_start_is_idempotent(self, service):
        server = QueryFrontend(service)
        server.start()
        server.start()  # second start is a no-op, not a second bind
        port = server.port
        server.stop()
        server.stop()  # double stop is safe
        # The port is free again: a new server can bind it immediately.
        with QueryFrontend(service, port=port) as reuse:
            status, _, _ = _get(reuse.url + "/health")
            assert status == 200

    def test_bytes_bodies_pass_through(self, server):
        status, _, body = _get(server.url + "/raw")
        assert status == 200 and body == b"\x00\x01"
