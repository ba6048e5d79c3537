"""HTTP serving of frozen fronts: responses equal the offline computations.

A served ``/predict`` must return bit-for-bit what the frozen model's
``predict`` produces, and ``/rescore`` must equal
:func:`repro.core.report.rescore_models` (non-finite errors map to JSON
null).  The profiler behind ``/stats`` is tested for its percentile and
throughput arithmetic since the benchmark trajectory's ``serving`` section
is built from it.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.artifact import load_front, save_front
from repro.core.problem import Problem
from repro.core.report import rescore_models
from repro.core.session import Session
from repro.core.settings import CaffeineSettings
from repro.serve import MAX_BODY_BYTES, RequestProfiler, make_server


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(7)
    X = rng.uniform(0.5, 2.0, size=(32, 2))
    y = 1.0 + 2.0 * X[:, 0] / X[:, 1]
    settings = CaffeineSettings(population_size=20, n_generations=3,
                                random_seed=0)
    result = Session([Problem.from_arrays(X, y)],
                     settings=settings).run().single()
    return result, X, y


@pytest.fixture(scope="module")
def server(fitted, tmp_path_factory):
    result, X, y = fitted
    path = tmp_path_factory.mktemp("serve") / "front.caffeine"
    save_front(result, path)
    server = make_server(str(path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return json.loads(response.read())


def _post(server, path, payload):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _post_status(server, path, payload) -> int:
    return _post_error(server, path, payload)[0]


def _post_error(server, path, payload):
    """``(status, error message)``; the message is None on success."""
    try:
        request = urllib.request.Request(
            server.url + path, data=json.dumps(payload).encode("utf-8"))
        with urllib.request.urlopen(request, timeout=10) as response:
            response.read()
            return response.status, None
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()).get("error")


def _strict_json(body: bytes):
    """``json.loads`` that rejects the non-standard NaN/Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(body, parse_constant=reject)


def _rejected_then_served(server, body: bytes, valid: dict) -> str:
    """POST ``body`` to /predict, expect 400, then POST ``valid`` on the
    same keep-alive connection and expect the normal answer; returns the
    rejection's error message."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("POST", "/predict", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 400
        message = json.loads(response.read())["error"]
        connection.request("POST", "/predict",
                           body=json.dumps(valid).encode("utf-8"),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read()) == _post(server, "/predict", valid)
    finally:
        connection.close()
    return message


class TestEndpoints:
    def test_healthz(self, server):
        health = _get(server, "/healthz")
        assert health["status"] == "ok"
        assert health["n_models"] == server.front.n_models
        assert health["n_variables"] == 2
        assert health["cold_load_ms"] > 0

    def test_models_listing(self, server):
        listing = _get(server, "/models")
        assert len(listing["models"]) == server.front.n_models
        assert listing["models"][0]["expression"]
        assert listing["dataset_fingerprint"] == \
            server.front.dataset_fingerprint

    def test_predict_equals_selected_model(self, server, fitted):
        result, X, _ = fitted
        response = _post(server, "/predict", {"X": X.tolist()})
        assert response["n_rows"] == X.shape[0]
        best = result.best_model()
        np.testing.assert_array_equal(np.asarray(response["predictions"]),
                                      best.predict(X))
        assert response["model"]["expression"] == best.expression()

    def test_predict_all_models(self, server, fitted):
        _result, X, _ = fitted
        response = _post(server, "/predict",
                         {"X": X.tolist(), "all_models": True})
        predictions = np.asarray(response["predictions"], dtype=float)
        assert predictions.shape == (server.front.n_models, X.shape[0])
        for row, model in zip(predictions, server.front.models):
            np.testing.assert_array_equal(row, model.predict(X))

    def test_predict_selection_knobs(self, server):
        front = server.front
        simplest = float(min(m.complexity for m in front.models))
        response = _post(server, "/predict",
                         {"X": [[1.0, 1.0]], "by": "train",
                          "complexity_max": simplest})
        assert response["model"]["complexity"] <= simplest
        response = _post(server, "/predict",
                         {"X": [[1.0, 1.0]], "model_index": 0})
        assert response["model"]["index"] == 0

    def test_rescore_equals_rescore_models(self, server, fitted):
        result, X, y = fitted
        response = _post(server, "/rescore",
                         {"X": X.tolist(), "y": y.tolist()})
        offline = rescore_models(list(result.tradeoff), X, y)
        assert len(response["errors"]) == len(offline)
        for served, computed in zip(response["errors"], offline):
            if served is None:
                assert not np.isfinite(computed)
            else:
                assert served == computed

    def test_every_body_is_strict_json(self, server, fitted):
        """The front was frozen without test data, so every test error is
        NaN: it must reach the client as null, never as a bare NaN."""
        _result, X, y = fitted
        assert all(np.isnan(m.test_error) for m in server.front.models)
        bodies = []
        for path in ("/healthz", "/models", "/stats"):
            with urllib.request.urlopen(server.url + path,
                                        timeout=10) as response:
                bodies.append(response.read())
        for path, payload in (
                ("/predict", {"X": X.tolist()}),
                ("/predict", {"X": X.tolist(), "all_models": True}),
                ("/rescore", {"X": X.tolist(), "y": y.tolist()})):
            request = urllib.request.Request(
                server.url + path, data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10) as response:
                bodies.append(response.read())
        parsed = [_strict_json(body) for body in bodies]
        assert all(model["test_error"] is None
                   for model in parsed[1]["models"])
        assert parsed[3]["model"]["test_error"] is None

    def test_accepted_socket_disables_nagle(self, server, fitted):
        """Headers and body leave in two writes, so a keep-alive client's
        delayed ACK would stall every response body unless the accepted
        socket sets TCP_NODELAY."""
        _result, X, _ = fitted
        seen = []
        plain = server.RequestHandlerClass

        class Recording(plain):
            def setup(self):
                super().setup()
                seen.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))

        server.RequestHandlerClass = Recording
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = json.dumps({"X": X[:1].tolist()}).encode("utf-8")
            for _ in range(3):
                connection.request("POST", "/predict", body=body)
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()
            server.RequestHandlerClass = plain
        # one keep-alive connection, one accepted socket, Nagle off
        assert len(seen) == 1 and seen[0] != 0

    def test_stats_accumulate(self, server):
        _post(server, "/predict", {"X": [[1.0, 1.0]]})
        stats = _get(server, "/stats")
        predict = stats["steps"]["predict"]
        assert predict["count"] >= 1
        assert predict["p50_ms"] > 0
        assert predict["rows_per_second"] > 0


class TestRejections:
    def test_missing_x(self, server):
        assert _post_status(server, "/predict", {}) == 400

    def test_feature_count_mismatch(self, server):
        assert _post_status(server, "/predict",
                            {"X": [[1.0, 2.0, 3.0]]}) == 400

    def test_rescore_without_y(self, server):
        assert _post_error(server, "/rescore", {"X": [[1.0, 1.0]]}) == \
            (400, "request body is missing 'y'")

    @pytest.mark.parametrize("selection", [
        {"model_index": 1.7}, {"model_index": "1"}, {"model_index": True},
        {"complexity_max": "5"}])
    def test_non_numeric_selection_rejected(self, server, selection):
        status, message = _post_error(server, "/predict",
                                      {"X": [[1.0, 1.0]], **selection})
        assert status == 400
        assert "must be" in message

    def test_unsatisfiable_complexity_bound(self, server):
        assert _post_status(server, "/predict",
                            {"X": [[1.0, 1.0]],
                             "complexity_max": -1.0}) == 400

    def test_unknown_paths(self, server):
        assert _post_status(server, "/nope", {"X": []}) == 404
        try:
            _get(server, "/nope")
            status = 200
        except urllib.error.HTTPError as error:
            error.read()
            status = error.code
        assert status == 404

    def test_oversized_body_rejected_unread(self, server):
        """A body declared above the limit gets 413 before any of it is
        read, and the connection closes instead of parsing it as the next
        request."""
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", "/predict")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            assert "exceeds" in json.loads(response.read())["error"]
        finally:
            connection.close()
        assert _get(server, "/healthz")["status"] == "ok"

    def test_deeply_nested_body_rejected(self, server, fitted):
        """JSON nested past the parser's recursion limit (far below the
        size cap) answers 400, and the same keep-alive connection then
        serves a valid request."""
        _result, X, _y = fitted
        message = _rejected_then_served(
            server, b"[" * 100000 + b"]" * 100000, {"X": X[:3].tolist()})
        assert "nests too deeply" in message

    def test_integer_too_large_for_a_float_rejected(self, server, fitted):
        """A 400-digit JSON integer cannot become a float: 400, and the
        same keep-alive connection then serves a valid request."""
        _result, X, y = fitted
        huge = 10 ** 400
        message = _rejected_then_served(
            server, json.dumps({"X": [[huge, 1.0]]}).encode("utf-8"),
            {"X": X[:3].tolist()})
        assert "too large" in message
        assert _post_status(server, "/rescore",
                            {"X": X[:2].tolist(), "y": [huge, y[1]]}) == 400

    def test_body_limit_admits_bulk_batches(self):
        rows = np.random.default_rng(0).uniform(0.5, 2.0, size=(10000, 13))
        body = json.dumps({"X": rows.tolist()}).encode("utf-8")
        assert 4 * len(body) < MAX_BODY_BYTES


class TestRequestProfiler:
    def test_percentiles_nearest_rank(self):
        profiler = RequestProfiler()
        for ms in range(1, 101):  # 1..100 ms
            profiler.record("step", ms / 1000.0, rows=10)
        snapshot = profiler.snapshot()["steps"]["step"]
        assert snapshot["count"] == 100
        assert snapshot["p50_ms"] == pytest.approx(50.0)
        assert snapshot["p95_ms"] == pytest.approx(95.0)
        assert snapshot["p99_ms"] == pytest.approx(99.0)
        assert snapshot["total_rows"] == 1000
        assert snapshot["rows_per_second"] == pytest.approx(
            1000 / snapshot["total_seconds"])

    def test_profile_step_context(self):
        profiler = RequestProfiler()
        with profiler.profile_step("work", rows=5):
            pass
        snapshot = profiler.snapshot()["steps"]["work"]
        assert snapshot["count"] == 1
        assert snapshot["total_rows"] == 5

    def test_sample_window_is_bounded(self):
        profiler = RequestProfiler(max_samples=8)
        for i in range(100):
            profiler.record("step", float(i))
        assert len(profiler._samples["step"]) == 8
        assert profiler.snapshot()["steps"]["step"]["count"] == 100

    def test_metrics_gauges(self):
        profiler = RequestProfiler()
        profiler.set_metric("cold_load_ms", 12.5)
        assert profiler.snapshot()["metrics"]["cold_load_ms"] == 12.5


class TestServerLoading:
    def test_make_server_accepts_front_object(self, fitted, tmp_path):
        result, _X, _ = fitted
        path = tmp_path / "front.caffeine"
        save_front(result, path)
        front = load_front(path)
        server = make_server(front, port=0)
        try:
            assert server.front is front
            # no cold load happened: the caller already held the front
            assert "cold_load_ms" not in \
                server.profiler.snapshot()["metrics"]
        finally:
            server.server_close()
