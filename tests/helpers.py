"""Small factories shared across test modules."""

from __future__ import annotations

import http.server
import json
import threading
from contextlib import contextmanager
from pathlib import Path

from godspell.corpus import Author, Novel, Passage
from godspell.records import ActAnnotation


def make_novel(
    novel_id: str,
    genders: list[str] = ("female",),
    series_tag: str | None = None,
    title: str | None = None,
    year: int = 2010,
) -> Novel:
    return Novel(
        id=novel_id,
        title=title or novel_id.replace("-", " ").title(),
        authors=[Author(name=f"Author {i}", gender=g) for i, g in enumerate(genders)],
        publisher="Test House",
        year=year,
        series_tag=series_tag,
        awards=[],
        source_path=Path(f"{novel_id}.txt"),
    )


def joined_blocks(rows: list, per_block: int) -> list[bytes]:
    """The JSON text of each row, joined by json's ", " per_block rows at a
    time: the blocks that _sweep.row_texts and topics.share_texts give."""
    texts = [json.dumps(row).encode() for row in rows]
    return [b", ".join(texts[i:i + per_block]) for i in range(0, len(texts), per_block)]


def make_passage(novel_id: str, index: int, position: float, text: str = "words") -> Passage:
    word_count = len(text.split())
    return Passage(
        novel_id=novel_id,
        index=index,
        text=text,
        word_count=word_count,
        word_start=index * word_count,
        word_end=(index + 1) * word_count,
        normalized_position=position,
    )


def make_annotation(
    novel_id: str,
    index: int,
    final: str = "NO",
    affect: str | None = None,
    impact: str | None = None,
    status: str = "ok",
    stage1_label: str | None = None,
    stage2_label: str | None = None,
) -> ActAnnotation:
    if status != "ok":
        return ActAnnotation(novel_id=novel_id, index=index, status=status,
                             failed_stage="stage1", error="transport")
    if stage1_label is None:
        stage1_label = "YES" if final == "YES" else "NO"
    stage1 = {
        "explanation": "scripted",
        "label": stage1_label,
        "act_description": "God acts." if stage1_label == "YES" else "NONE",
        "affected_description": "someone" if stage1_label == "YES" else "NONE",
    }
    stage2 = None
    if stage1_label == "YES":
        if stage2_label is None:
            stage2_label = "YES" if final == "YES" else "NO"
        stage2 = {"explanation": "scripted", "label": stage2_label}
    if final == "YES":
        affect = affect or "INDIVIDUAL"
        impact = impact or "LOVING"
    return ActAnnotation(
        novel_id=novel_id,
        index=index,
        status="ok",
        stage1=stage1,
        stage2=stage2,
        final_label=final,
        affect=affect,
        impact=impact,
        cache_key="k" * 64,
    )


# a stage-1 answer that ends the cascade, so it answers every call of a run
STAGE1_NO = {"explanation": "e", "label": "NO", "act_description": "NONE",
             "affected_description": "NONE"}


class ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each request with the next action of the server's script;
    HTTP/1.0, so each connection carries one response. An action is ("ok",
    fields) or one of "truncated", "nonobject", "short" and an error status;
    or a 200 framed in some other way: "continue" (after a 100 Continue),
    "chunked", "unframed" (read to the close), "close" (Connection: close),
    "longheader" (a header line over 64 KiB); or "badstatus"."""

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.server.open += 1

    def finish(self):
        try:
            super().finish()
        finally:
            with self.server.lock:
                self.server.open -= 1

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        with self.server.lock:
            self.server.requests += 1
            self.server.hosts.append(self.headers["Host"])
            action = self.server.script.pop(0) if self.server.script else ("ok",)
        kind = action[0]
        if kind == "badstatus":
            self.wfile.write(b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n")  # not HTTP/
            self.close_connection = True
            return
        if kind == "continue":  # an interim response before the final one
            self.send_response_only(100)
            self.end_headers()
        if kind in ("ok", "continue", "chunked", "unframed", "close", "longheader"):
            fields = action[1] if len(action) > 1 else {"explanation": "e", "label": "YES"}
            body = json.dumps({"response": json.dumps(fields)}).encode()
            self.send_response(200)
        elif kind == "truncated":
            body = json.dumps({"response": '{"explanation": "tru'}).encode()
            self.send_response(200)
        elif kind == "nonobject":
            body = b"[]"
            self.send_response(200)
        elif kind == "short":  # Content-Length promises more than is sent
            body = json.dumps({"response": "{}"}).encode()
            self.send_response(200)
            self.close_connection = True  # the rest never comes, on HTTP/1.1 too
        else:  # http error
            body = b"{}"
            self.send_response(int(kind))
        self.send_header("Content-Type", "application/json")
        if kind == "longheader":  # a header line over http.client's 64 KiB
            self.send_header("X-Padding", "x" * 65536)
            self.close_connection = True
        if kind == "chunked":  # as Go's net/http sends a body over 2 KiB: no Content-Length
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            for at in range(0, len(body), 1024):
                piece = body[at:at + 1024]
                self.wfile.write(b"%x;at=%d\r\n%s\r\n" % (len(piece), at, piece))
            self.wfile.write(b"0\r\nX-Trailer: end\r\n\r\n")
            return
        if kind == "unframed":  # no length: the body ends at the close
            self.end_headers()
            self.wfile.write(body)
            self.close_connection = True
            return
        if kind == "close":
            self.send_header("Connection", "close")
        self.send_header("Content-Length", str(len(body) + (10 if kind == "short" else 0)))
        self.end_headers()
        self.wfile.write(body)
        if kind == "close":  # said, though the server would take another request
            self.close_connection = False

    def log_message(self, *args):
        pass


class KeepAliveHandler(ScriptedHandler):
    """HTTP/1.1: a connection stays open until the client closes it."""

    protocol_version = "HTTP/1.1"


class HeldOpenHandler(ScriptedHandler):
    """HTTP/1.0 that keeps each connection open after its response, as a
    server may: a client that reused it would make fewer connections."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = False


class OneShotHandler(KeepAliveHandler):
    """HTTP/1.1 that closes each connection after one response without a
    Connection: close header, as a server does to an idle connection."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


@contextmanager
def serving(handler):
    """A threaded server of handler on a free port, with its script, its
    counts of requests, connections made and connections open, and the Host
    header of each request."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.script = []
    server.requests = server.connections = server.open = 0
    server.hosts = []
    server.lock = threading.Lock()
    # a short poll interval lets shutdown() return at once, not after up to 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
