"""Stub of Ollama's ``POST /api/generate`` with a fixed service time.

The stub answers from its own deterministic rule: the stage comes from the
field names in ``format.properties``, and the labels from a sha256 of the
prompt's ``<text>`` block. It shares no code with the program's mock model,
so that the mock can move or change without changing the benchmark. It
counts calls per stage and duplicate calls, that is calls that repeat a
(model, prompt, format) it has already answered.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

STAGE1 = "stage1"
STAGE2 = "stage2"
AFFECT = "affect"
IMPACT = "impact"

_TEXT_RE = re.compile(r"<text>\n(.*)\n</text>", re.DOTALL)
_IMPACTS = ("LOVING", "PUNISHING", "BOTH", "NEUTRAL")
# Stage 1 says YES for ~85 % of texts and stage 2 for ~90 % of those, so a
# passage costs ~3.4 calls: 1 + 0.85 + 0.85 * 0.9 * 2.
_STAGE1_YES_BELOW = 218
_STAGE2_YES_BELOW = 230


def stage_of(properties) -> str:
    names = set(properties)
    if "act_description" in names:
        return STAGE1
    if "god_affect" in names:
        return AFFECT
    if "god_impact" in names:
        return IMPACT
    return STAGE2


def text_of(prompt: str) -> str:
    match = _TEXT_RE.search(prompt)
    return match.group(1) if match else prompt


def rule(stage: str, text: str) -> dict[str, str]:
    """The fields the stub answers for one stage and one ``<text>`` block."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    if stage == STAGE1:
        if digest[0] < _STAGE1_YES_BELOW:
            return {
                "explanation": "The stub rule ascribes an act to God.",
                "label": "YES",
                "act_description": f"God answered the prayer in passage {digest.hex()[:16]}.",
                "affected_description": "one person",
            }
        return {
            "explanation": "The stub rule finds no act of God.",
            "label": "NO",
            "act_description": "NONE",
            "affected_description": "NONE",
        }
    if stage == STAGE2:
        label = "YES" if digest[1] < _STAGE2_YES_BELOW else "NO"
        return {"explanation": "The stub rule decides the acting force.", "label": label}
    if stage == AFFECT:
        return {
            "god_affect_explanation": "The stub rule decides who is affected.",
            "god_affect": "GROUP" if digest[2] & 1 else "INDIVIDUAL",
        }
    if stage == IMPACT:
        return {
            "god_impact_explanation": "The stub rule decides the kind of act.",
            "god_impact": _IMPACTS[digest[3] % len(_IMPACTS)],
        }
    raise ValueError(f"unknown stage {stage!r}")


def reply(properties, prompt: str) -> str:
    """The ``response`` string for one request: the rule's fields as JSON."""
    return json.dumps(rule(stage_of(properties), text_of(prompt)))


def responder(config, prompt: str, schema) -> str:
    """Zero-latency in-process transport with the stub's rule."""
    return reply(schema.names(), prompt)


class StubEndpoint:
    """Threaded HTTP server on 127.0.0.1, between ``start`` and ``stop`` or
    as a context manager."""

    def __init__(self, service_s: float = 0.020):
        self.service_s = service_s
        self.calls = {STAGE1: 0, STAGE2: 0, AFFECT: 0, IMPACT: 0}
        self.dup_calls = 0
        self._seen: set[bytes] = set()
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def total_calls(self) -> int:
        with self._lock:
            return sum(self.calls.values())

    def reset(self) -> None:
        with self._lock:
            for stage in self.calls:
                self.calls[stage] = 0
            self.dup_calls = 0
            self._seen.clear()

    def answer(self, body: bytes) -> tuple[int, dict]:
        """Status and JSON reply for one request body."""
        try:
            request = json.loads(body)
            prompt = request["prompt"]
            properties = request["format"]["properties"]
            model = request["model"]
        except (ValueError, KeyError, TypeError):
            return 400, {"error": "expected JSON with model, prompt and format.properties"}
        if not isinstance(prompt, str) or not isinstance(properties, dict):
            return 400, {"error": "prompt must be a string, format.properties an object"}
        key = hashlib.sha256(json.dumps(
            [model, prompt, request["format"]], sort_keys=True
        ).encode("utf-8")).digest()
        stage = stage_of(properties)
        with self._lock:
            self.calls[stage] += 1
            if key in self._seen:
                self.dup_calls += 1
            self._seen.add(key)
        time.sleep(self.service_s)
        return 200, {"model": model, "response": reply(properties, prompt), "done": True}

    def start(self) -> "StubEndpoint":
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self) -> None:  # noqa: N802 - http.server naming
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length)
                if self.path != "/api/generate":
                    status, payload = 404, {"error": f"no route {self.path}"}
                else:
                    status, payload = stub.answer(body)
                data = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, format, *args) -> None:  # noqa: A002
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)

    def __enter__(self) -> "StubEndpoint":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
