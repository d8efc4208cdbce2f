"""Two-stage divine-action annotation against a local inference endpoint.

Stage 1 detects acts of God in a passage; stage 2 filters out generic
supernatural events; a passage is positive only when both stages say YES.
Two follow-up prompts characterize each detected act (who is affected,
and whether the act is loving or punishing). All responses are
schema-constrained JSON, cached for resume, and parsed strictly by
``parse_response``, a cached entry as a fresh body.

A prompt registry is a JSON object ``{"templates": [...]}``, each template
``{"name", "version", "body", "fields": [{"name", "kind", "values"}]}``:
the body holds the passage placeholder once, and each field is free
``"text"`` or an ``"enum"`` with a list of at least two ``"values"``.
``BUILTIN_REGISTRY`` is the built-in registry in that layout, and
``default_registry`` and ``load_registry`` both build through
``_load_registry``. ``STAGES`` declares, for each stage of the cascade,
the template it runs and the answer fields the cascade reads from it, and
``resolve_templates`` checks every template against it before any call.

``stream_pipeline`` is the one entry point into the cascade: it yields the
annotations in input order through a bounded window of passages in flight,
and ``write_annotations`` writes them as they come, replacing
annotations.jsonl only when the stream is complete. ``run_pipeline`` is
its list.

``http_transport`` writes HTTP/1.1 on a socket (chunked, Content-Length
and read-to-close bodies; Host as http.client writes it) and keeps one
connection per worker thread, closed when ``stream_pipeline`` returns. It
reaches the endpoint, a local one, directly: no proxy from http_proxy or
https_proxy is applied. Only an https endpoint imports ssl.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .config import ModelConfig, read_json, read_text, replacing, sha256
from .corpus import _SENTENCE_RE, Passage
from .records import FACETS, ActAnnotation

log = logging.getLogger(__name__)

PLACEHOLDER = "[INSERT TEXT HERE]"

STAGE1 = "stage1"
STAGE2 = "stage2"
AFFECT = "affect"
IMPACT = "impact"


class TransportError(RuntimeError):
    """Endpoint unreachable, timed out, or returned a non-success status;
    status is that HTTP status, None when no response came."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status

    @property
    def retryable(self) -> bool:
        """False for a client error (4xx) other than 408 Request Timeout and
        429 Too Many Requests: the same request would fail the same way."""
        return self.status is None or not 400 <= self.status < 500 or self.status in (408, 429)


class MalformedResponse(ValueError):
    """Response body failed strict schema parsing."""


class PipelineError(RuntimeError):
    """Retries exhausted for one passage; carries the failure kind."""

    def __init__(self, kind: str, message: str, stage: str | None = None):
        super().__init__(message)
        self.kind = kind
        self.stage = stage


@dataclass
class OutputField:
    name: str
    kind: str                      # "text" | "enum"
    values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("text", "enum"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "enum" and len(self.values) < 2:
            raise ValueError(f"enum field {self.name!r} needs at least 2 values")
        # parse_response matches an answer upper-cased, so only such a label can match
        for label in self.values:
            if label != label.strip().upper():
                raise ValueError(f"enum field {self.name!r} label {label!r} must be upper-case, "
                                 "with no space around it")


@dataclass
class OutputSchema:
    fields: list[OutputField]

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def to_json_schema(self) -> dict:
        properties = {}
        for f in self.fields:
            spec: dict = {"type": "string"}
            if f.kind == "enum":
                spec["enum"] = list(f.values)
            properties[f.name] = spec
        return {"type": "object", "properties": properties, "required": self.names()}


@dataclass
class PromptTemplate:
    name: str
    version: str
    body: str
    schema: OutputSchema

    def __post_init__(self) -> None:
        if self.body.count(PLACEHOLDER) != 1:
            raise ValueError(f"template {self.name}@{self.version} must contain exactly one "
                             f"{PLACEHOLDER!r} placeholder")


def render_prompt(template: PromptTemplate, text: str) -> str:
    """Substitute the passage text verbatim; no escaping or other mutation."""
    return template.body.replace(PLACEHOLDER, text)


def parse_response(raw: str, schema: OutputSchema) -> dict[str, str]:
    """Strictly parse a JSON response body (or a cache entry) against the
    schema and return its schema fields, in schema order.

    Every schema field must be present; enum values match case-insensitively
    and normalize to canonical upper-case; extra fields are ignored.
    """
    try:
        payload = json.loads(raw)
    except (json.JSONDecodeError, TypeError) as e:
        raise MalformedResponse(f"response is not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise MalformedResponse("response JSON is not an object")
    parsed = {}
    for f in schema.fields:
        if f.name not in payload:
            raise MalformedResponse(f"missing field {f.name!r}")
        value = payload[f.name]
        if not isinstance(value, str):
            raise MalformedResponse(f"field {f.name!r} is not a string")
        if f.kind == "enum":
            canonical = value.strip().upper()
            if canonical not in f.values:
                raise MalformedResponse(
                    f"field {f.name!r} value {value!r} not in {list(f.values)}"
                )
            parsed[f.name] = canonical
        else:
            parsed[f.name] = value
    return parsed


# The built-in registry, in the registry file's layout (module docstring)
BUILTIN_REGISTRY = {"templates": [
    {"name": "act_of_god", "version": "v1", "body": """\
You will be given a passage from a novel. Decide whether the passage
describes an act of the Christian God.

Label the passage YES if:
- Something in the passage is clearly ascribed to God.
- God performs an action, or is described as one who does an action
(for example, "God provided" or "the One who gives me marching orders").
- A Bible quote or story in the passage describes an act of God.

Label the passage NO if:
- No action by God is mentioned in the passage.
- God is described only in the future tense ("God will...").
- The passage only describes qualities of God ("God is kind") or of a
person ("God's chosen one").
- A character prays or speaks to God but God does not act or respond.
- The passage leaves doubt about whether God acted.

Please respond with:
- explanation: Explain why you chose YES or NO
- label: YES or NO
- act_description: If YES, describe the act of God in one sentence.
If NO, write NONE.
- affected_description: If YES, describe who is affected by the act.
If NO, write NONE.

<text>
[INSERT TEXT HERE]
</text>""",
     "fields": [{"name": "explanation", "kind": "text"},
                {"name": "label", "kind": "enum", "values": ["YES", "NO"]},
                {"name": "act_description", "kind": "text"},
                {"name": "affected_description", "kind": "text"}]},
    {"name": "supernatural_check", "version": "v1", "body": """\
You will be given a passage from a novel. The passage may describe an
act of the Christian God or a different supernatural or magical event.
Decide whether the acting force in the passage is the Christian God.

Label the passage YES if:
- The action is performed by the Christian God, including actions
described in Bible quotes or stories.

Label the passage NO if:
- The action is performed by another supernatural force, such as magic,
sorcery, ghosts, or mythical beings.
- The action is a supernatural event that is not attributed to the
Christian God.

Please respond with:
- explanation: Explain why you chose YES or NO
- label: YES or NO

<text>
[INSERT TEXT HERE]
</text>""",
     "fields": [{"name": "explanation", "kind": "text"},
                {"name": "label", "kind": "enum", "values": ["YES", "NO"]}]},
    {"name": "affect", "version": "v1", "body": """\
You will be given a description of an act of the Christian God in a novel
passage. Decide who the Christian God is affecting in the passage.

Choose one of the following codes:
- INDIVIDUAL: God affects one person.
- GROUP: God affects a group or community (e.g., a church, a town, a book
club).

Please respond with:
- god_affect_explanation: Explain why you chose INDIVIDUAL or GROUP
- god_affect: INDIVIDUAL or GROUP

<text>
[INSERT TEXT HERE]
</text>""",
     "fields": [{"name": "god_affect_explanation", "kind": "text"},
                {"name": "god_affect", "kind": "enum", "values": list(FACETS[AFFECT])}]},
    {"name": "impact", "version": "v1", "body": """\
You will be given a description of an act of the Christian God in a novel
passage. Decide what kind of action it is.

Choose one of the following codes:
- LOVING: God's action is kind (for example it invovles mercy, love,
forgiveness, or help).
- PUNISHING: God's action is meant to punish or judge (for example it involves
anger, vengeance, violence, or judgment).
- BOTH: God's action has elements of both love and punishment.
- NEUTRAL: God's action is neutral or ambiguous. Avoid using this label when
possible.

Please respond with:
- god_impact_explanation: Explain why you chose LOVING, PUNISHING, BOTH, or
NEUTRAL
- god_impact: LOVING, PUNISHING, BOTH, or NEUTRAL

<text>
[INSERT TEXT HERE]
</text>""",
     "fields": [{"name": "god_impact_explanation", "kind": "text"},
                {"name": "god_impact", "kind": "enum", "values": list(FACETS[IMPACT])}]},
]}

# each stage -> its template's name, and the answer fields the cascade reads,
# as that template must declare them (an enum's labels in any order); stage 1
# comes before stage 2, whose fields are a subset of its own (_stage_for)
STAGES = {
    STAGE1: ("act_of_god", (OutputField("label", "enum", ("YES", "NO")),
                            OutputField("act_description", "text"))),
    STAGE2: ("supernatural_check", (OutputField("label", "enum", ("YES", "NO")),)),
    AFFECT: ("affect", (OutputField("god_affect", "enum", FACETS[AFFECT]),)),
    IMPACT: ("impact", (OutputField("god_impact", "enum", FACETS[IMPACT]),)),
}


class PromptRegistry:
    """Versioned prompt store; (name, version) pairs are unique."""

    def __init__(self) -> None:
        self._templates: dict[tuple[str, str], PromptTemplate] = {}

    def register(self, template: PromptTemplate) -> None:
        key = (template.name, template.version)
        if key in self._templates:
            raise ValueError(f"template {template.name}@{template.version} already registered")
        self._templates[key] = template

    def get(self, name: str, version: str) -> PromptTemplate:
        try:
            return self._templates[(name, version)]
        except KeyError:
            raise KeyError(f"no template {name}@{version} in registry") from None


def _checked(value, what: str, kind: type = str):
    """value, when it is a string (a list of strings for kind list);
    TypeError naming what otherwise."""
    if isinstance(value, kind) and (kind is str or all(isinstance(v, str) for v in value)):
        return value
    raise TypeError(f"{what} must be {'a string' if kind is str else 'a list of strings'}, "
                    f"got {value!r}")


def _load_registry(payload: dict, source) -> PromptRegistry:
    """The registry payload declares in the registry file's layout;
    ValueError naming source when payload is not in that layout."""
    registry = PromptRegistry()
    try:
        for entry in payload["templates"]:
            fields = [OutputField(_checked(f["name"], "field name"),
                                  _checked(f["kind"], "field kind"),
                                  tuple(_checked(f.get("values", []), "field values", list)))
                      for f in entry["fields"]]
            registry.register(PromptTemplate(*(_checked(entry[key], f"template {key}")
                                               for key in ("name", "version", "body")),
                                             OutputSchema(fields)))
    except KeyError as e:
        raise ValueError(f"{source}: missing key {e}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{source}: {e}") from None
    return registry


def default_registry() -> PromptRegistry:
    return _load_registry(BUILTIN_REGISTRY, "built-in registry")


def load_registry(path: Path | str) -> PromptRegistry:
    """The registry a JSON prompt registry file holds; ValueError naming the
    file when it is not one."""
    return _load_registry(read_json(path), path)


Transport = Callable[[ModelConfig, str, OutputSchema], str]


_worker = threading.local()  # .idle: its pipeline's connections, set by stream_pipeline


class _Connection:
    """A socket to the endpoint, in TLS for https, and its one buffered reader."""

    def __init__(self, scheme: str, host: str, port: int, timeout: float):
        import socket

        self.sock = socket.create_connection((host, port), timeout)
        if scheme == "https":
            import ssl

            self.sock = ssl.create_default_context().wrap_socket(self.sock, server_hostname=host)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def response(self) -> tuple[int, bytes, bool]:
        """The final response's status, its body and whether the connection can
        carry another request; a response that breaks the framing is a ValueError."""
        status = 100
        while 100 <= status < 200:  # interim responses
            line = self._line()
            if not line:  # http.client's RemoteDisconnected: an idle connection is reopened
                raise ConnectionResetError("the endpoint closed the connection without a response")
            version, status = line.split(None, 2)[:2]
            status = int(status)
            if not version.startswith(b"HTTP/") or not 100 <= status <= 999:
                raise ValueError(f"bad status line {line!r}")
            fields = self._fields()
        keep = version == b"HTTP/1.1" and b"close" not in fields.get(b"connection", b"").lower()
        if fields.get(b"transfer-encoding", b"").lower() == b"chunked":
            chunks = []
            while size := int(self._line().split(b";")[0], 16):
                chunks.append(self._exactly(size))
                self._exactly(2)  # the chunk's CRLF
            self._fields()  # the trailer
            return status, b"".join(chunks), keep
        if b"content-length" in fields:
            return status, self._exactly(int(fields[b"content-length"])), keep
        return status, self.rfile.read(), False

    def _line(self) -> bytes:
        line = self.rfile.readline(65537)
        if len(line) > 65536:  # http.client's bound on a line of a head
            raise ValueError("a line longer than 64 KiB")
        return line

    def _fields(self) -> dict[bytes, bytes]:
        fields: dict[bytes, bytes] = {}
        for _ in range(100):  # http.client's bound on a head's lines, the blank one included
            line = self._line()
            if line in (b"\r\n", b"\n", b""):
                return fields
            name, _, value = line.partition(b":")
            fields.setdefault(name.strip().lower(), value.strip())
        raise ValueError("more than 100 lines in a head")

    def _exactly(self, n: int) -> bytes:
        data = self.rfile.read(n) if n >= 0 else b""
        if len(data) != n:
            raise ValueError(f"a body of {n} bytes ended after {len(data)}")
        return data


def http_transport(config: ModelConfig, prompt: str, schema: OutputSchema) -> str:
    """One completion request against an Ollama-compatible generate endpoint,
    with the output constrained to the schema, in HTTP/1.1 on a socket. A
    worker of stream_pipeline takes an idle connection of its pipeline, or
    opens one, and puts it back after an HTTP/1.1 response without
    Connection: close (RFC 9112 9.3); elsewhere it is closed after the call.
    One the server closed while idle is opened again at once. Host is
    http.client's: an IPv6 literal in brackets, the port only when it is not
    the default, no userinfo. No proxy is applied. 1xx responses are
    skipped, and a body is framed by RFC 9112 6.3: chunked, then
    Content-Length, else read to the close. TCP_QUICKACK, set at each
    request as Linux turns it off by itself, acknowledges the first segment
    of a response at once, so a server whose Nagle rule (RFC 896) holds the
    rest behind it does not wait; without it, off Linux, a reused connection
    can wait out a delayed ACK (RFC 1122 4.2.3.2)."""
    import socket  # http backend only
    from urllib.parse import urlsplit

    url = config.endpoint.rstrip("/") + "/api/generate"
    parts = urlsplit(url)
    default_port = 443 if parts.scheme == "https" else 80
    port = parts.port or default_port
    host = f"[{parts.hostname}]" if ":" in parts.hostname else parts.hostname
    body = json.dumps({"model": config.model, "prompt": prompt, "stream": False,
                       "options": {"temperature": config.temperature},
                       "format": schema.to_json_schema()}).encode("utf-8")
    request = (f"POST {parts.path} HTTP/1.1\r\nHost: {host}"
               f"{'' if port == default_port else f':{port}'}\r\n"
               "Accept-Encoding: identity\r\nContent-Type: application/json\r\n"
               f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body
    idle = getattr(_worker, "idle", None)
    try:
        conn = idle.pop()
    except (AttributeError, IndexError):  # not a pipeline's worker, or none idle
        conn = None
    try:
        for reused in (conn is not None, False):
            try:
                conn = conn or _Connection(parts.scheme, parts.hostname, port, config.timeout)
                conn.sock.sendall(request)
                if hasattr(socket, "TCP_QUICKACK"):
                    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
                status, data, keep = conn.response()
                break
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                conn.close()
                conn = None
    except (OSError, ValueError) as e:  # ValueError: a response that breaks HTTP's framing
        if conn is not None:
            conn.close()
        raise TransportError(f"request to {url} failed: {e}") from None
    if keep and idle is not None:
        idle.append(conn)
    else:
        conn.close()
    if not 200 <= status < 300:
        raise TransportError(f"endpoint returned HTTP {status}", status)
    try:
        return json.loads(data)["response"]
    except (ValueError, KeyError, TypeError):
        raise MalformedResponse("endpoint body lacked a response field") from None


BACKOFF_BASE = 1.0  # seconds before the first retry


def call_model(
    config: ModelConfig,
    prompt: str,
    schema: OutputSchema,
    transport: Transport | None = None,
) -> dict[str, str]:
    """Issue one schema-constrained completion and return its parsed fields,
    retrying transport failures and malformed bodies with exponential
    backoff (base 1s, factor 2). A client error that a retry cannot mend
    (see TransportError.retryable), such as 404 for an unknown model, fails
    at once."""
    transport = transport or http_transport
    delay = BACKOFF_BASE
    last_error: Exception | None = None
    for attempt in range(config.max_retries + 1):
        try:
            return parse_response(transport(config, prompt, schema), schema)
        except (TransportError, MalformedResponse) as e:
            last_error = e
            if isinstance(e, TransportError) and not e.retryable:
                raise PipelineError("transport", f"not retried: {e}") from e
            if attempt < config.max_retries:
                time.sleep(delay)
                delay *= 2
    kind = "transport" if isinstance(last_error, TransportError) else "malformed"
    raise PipelineError(kind, f"retries exhausted: {last_error}") from last_error


def cache_key(model_name: str, template: PromptTemplate, text: str, stage: str) -> str:
    payload = json.dumps(
        [model_name, f"{template.name}@{template.version}", text, stage],
        ensure_ascii=False,
    )
    return sha256(payload.encode("utf-8")).hexdigest()


class AnnotationCache:
    """One JSON file per (stage, key); atomic writes so concurrent workers
    and interrupted runs never leave partial entries."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)

    def _path(self, stage: str, key: str) -> Path:
        return self.directory / stage / f"{key}.json"

    def get(self, stage: str, key: str) -> str | None:
        """The entry's text, decoded by config.read_text, or None when there
        is no entry; ValueError naming the entry when it is not UTF-8."""
        path = self._path(stage, key)
        return read_text(path) if path.is_file() else None

    def put(self, stage: str, key: str, fields: dict) -> None:
        path = self._path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with replacing(path) as tmp:
            tmp.write_text(json.dumps(fields, ensure_ascii=False), encoding="utf-8")


def _run_stage(
    stage: str,
    text: str,
    config: ModelConfig,
    template: PromptTemplate,
    cache: AnnotationCache,
    transport: Transport | None,
) -> tuple[dict[str, str], str]:
    """Execute (or look up) one stage; returns parsed fields and cache key.

    A cache entry that is not UTF-8 or parse_response rejects is a miss."""
    key = cache_key(config.model, template, text, stage)
    try:
        cached = cache.get(stage, key)
        if cached is not None:
            return parse_response(cached, template.schema), key
    except ValueError as e:  # read_text's for bytes that are not UTF-8, or MalformedResponse
        log.warning("cache entry %s/%s is malformed (%s); treating it as a miss",
                    stage, key, e)
    try:
        fields = call_model(config, render_prompt(template, text), template.schema, transport)
    except PipelineError as e:
        e.stage = stage
        raise
    cache.put(stage, key, fields)
    return fields, key


def _annotate_one(
    passage: Passage,
    config: ModelConfig,
    templates: dict[str, PromptTemplate],
    cache: AnnotationCache,
    transport: Transport | None,
) -> ActAnnotation:
    """The cascade for one passage: stage 1, stage 2 when stage 1 says YES,
    then affect and impact (prompted with the stage-1 act description, not
    the passage) when both say YES."""
    ref = passage.ref

    def run(stage: str, text: str) -> tuple[dict[str, str], str]:
        return _run_stage(stage, text, config, templates[stage], cache, transport)

    stage1 = stage2 = affect = impact = None
    try:
        if not passage.text.strip():
            raise PipelineError("malformed", "empty passage text", STAGE1)
        stage1, key = run(STAGE1, passage.text)
        final = "NO"
        if stage1["label"] == "YES":
            stage2, _ = run(STAGE2, passage.text)
            final = "YES" if stage2["label"] == "YES" else "NO"
        if final == "YES":
            act = stage1["act_description"]
            if not act.strip():
                raise PipelineError("malformed", "empty act description", AFFECT)
            affect = run(AFFECT, act)[0]["god_affect"]
            impact = run(IMPACT, act)[0]["god_impact"]
        return ActAnnotation(
            novel_id=passage.novel_id,
            index=passage.index,
            status="ok",
            stage1=stage1,
            stage2=stage2,
            final_label=final,
            affect=affect,
            impact=impact,
            cache_key=key,
        )
    except PipelineError as e:
        log.warning("passage %s unresolved at %s (%s)", ref, e.stage, e.kind)
        return ActAnnotation(
            novel_id=passage.novel_id,
            index=passage.index,
            status="unresolved",
            stage1=stage1,
            stage2=stage2,
            failed_stage=e.stage,
            error=e.kind,
        )


def resolve_templates(registry: PromptRegistry,
                      versions: dict[str, str]) -> dict[str, PromptTemplate]:
    """Each stage's template at its version in versions (v1 when absent);
    KeyError when versions names a stage or a version the registry lacks,
    ValueError naming the template and the field when a template does not
    declare a field the cascade reads as STAGES does."""
    unknown = sorted(set(versions) - set(STAGES))
    if unknown:
        raise KeyError(f"prompt versions name unknown stages {unknown}")
    templates = {}
    for stage, (name, reads) in STAGES.items():
        template = templates[stage] = registry.get(name, versions.get(stage, "v1"))
        declared = {f.name: f for f in template.schema.fields}
        for read in reads:
            f = declared.get(read.name)
            if f is None or f.kind != read.kind or set(f.values) != set(read.values):
                kind = f"an enum of {', '.join(read.values)}" if read.values else "text"
                raise ValueError(f"template {name}@{template.version}: the cascade reads "
                                 f"field {read.name!r} as {kind}")
    return templates


WINDOW_PER_WORKER = 4  # passages in flight per worker thread


def stream_pipeline(
    passages: Iterable[Passage],
    config: ModelConfig,
    *,
    cache_dir: Path | str,
    workers: int,
    templates: dict[str, PromptTemplate] | None = None,
    transport: Transport | None = None,
) -> Iterator[ActAnnotation]:
    """Annotate each passage, resuming from the cache in cache_dir, and
    yield the annotations in input order whatever order the workers finish
    in.

    templates maps each stage to its template (from resolve_templates);
    None means the built-in v1 templates. Failed passages are recorded as
    unresolved without aborting the batch. Passages are taken from the
    iterable only as the window allows: at most WINDOW_PER_WORKER * workers
    are in flight, so memory does not grow with the corpus. When the
    stream ends early (an exception, or close()), the passages not yet
    started are cancelled and the running ones finished.
    """
    if templates is None:
        templates = resolve_templates(default_registry(), {})
    cache = AnnotationCache(cache_dir)
    window = WINDOW_PER_WORKER * workers
    in_flight: deque[Future[ActAnnotation]] = deque()
    idle: list = []  # http_transport's connections between calls
    pool = ThreadPoolExecutor(max_workers=workers, initializer=setattr,
                              initargs=(_worker, "idle", idle))
    try:
        for passage in passages:
            in_flight.append(pool.submit(_annotate_one, passage, config, templates, cache,
                                         transport))
            if len(in_flight) == window:
                yield in_flight.popleft().result()
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
        for conn in idle:
            conn.close()


def run_pipeline(
    passages: Sequence[Passage],
    config: ModelConfig,
    *,
    cache_dir: Path | str,
    workers: int,
    templates: dict[str, PromptTemplate] | None = None,
    transport: Transport | None = None,
) -> list[ActAnnotation]:
    """Every annotation stream_pipeline yields, in input order, as one list:
    the window bounds the passages in flight, and the list holds them all."""
    return list(stream_pipeline(passages, config, cache_dir=cache_dir, workers=workers,
                                templates=templates, transport=transport))


def write_annotations(annotations: Iterable[ActAnnotation], path: Path | str) -> None:
    """One JSON line per annotation, in input order, through
    config.replacing: path is replaced only once the iterable is exhausted."""
    with replacing(path) as tmp, tmp.open("w", encoding="utf-8") as fh:
        for ann in annotations:
            # vars, not asdict: the fields in order, without asdict's deep copy
            fh.write(json.dumps({"passage": ann.ref, **vars(ann)}, ensure_ascii=False) + "\n")


_TEXT_SPAN_RE = re.compile(r"<text>\n(.*)\n</text>", re.DOTALL)

_MOCK_GOD_RE = re.compile(r"\b(God|Lord)\b")
_MOCK_SUPERNATURAL_RE = re.compile(
    r"\b(magic|magical|wizard|sorcer\w*|spell|enchant\w*|ghost|vampire|fairy)\b", re.IGNORECASE
)
_MOCK_GROUP_RE = re.compile(
    r"\b(crowd|nation|people|city|town|village|church|congregation|army|families|tribe)\b",
    re.IGNORECASE,
)
_MOCK_PUNISH_RE = re.compile(
    r"\b(plague\w*|wrath|smote|smite\w*|punish\w*|judgment|destroy\w*|scatter\w*|storm)\b",
    re.IGNORECASE,
)
_MOCK_LOVE_RE = re.compile(
    r"\b(heal\w*|bless\w*|comfort\w*|save[ds]?|saved|mercy|merciful|forgave|forgiv\w*"
    r"|provide[ds]?|provision|protect\w*|love[ds]?|answer\w*|restore\w*)\b",
    re.IGNORECASE,
)


class MockModel:
    """Deterministic offline stand-in for a live endpoint.

    Responses are scripted by regex rules over the passage text (extracted
    from the prompt's <text> block). Pass per-stage overrides to script
    custom behavior, including malformed output, in tests.
    """

    def __init__(self, overrides: dict[str, Callable[[str], dict]] | None = None):
        self.overrides = overrides or {}
        self.calls: dict[str, int] = dict.fromkeys(STAGES, 0)
        self._lock = threading.Lock()

    @staticmethod
    def _stage_for(schema: OutputSchema) -> str:
        """The first stage in STAGES whose read fields the schema has."""
        names = set(schema.names())
        return next(stage for stage, (_, reads) in STAGES.items()
                    if names.issuperset(read.name for read in reads))

    @staticmethod
    def _extract_text(prompt: str) -> str:
        match = _TEXT_SPAN_RE.search(prompt)
        return match.group(1) if match else prompt

    def _stage1(self, text: str) -> dict:
        match = _MOCK_GOD_RE.search(text)
        if not match:
            return {
                "explanation": "No action is ascribed to God in this passage.",
                "label": "NO",
                "act_description": "NONE",
                "affected_description": "NONE",
            }
        sentences = _SENTENCE_RE.split(text)
        acting = next((s for s in sentences if _MOCK_GOD_RE.search(s)), text)
        return {
            "explanation": "An action in the passage is ascribed to God.",
            "label": "YES",
            "act_description": " ".join(acting.split()),
            "affected_description": (
                "a group of people" if _MOCK_GROUP_RE.search(acting) else "one person"
            ),
        }

    def _stage2(self, text: str) -> dict:
        if _MOCK_SUPERNATURAL_RE.search(text):
            return {
                "explanation": "The event reads as magic or another supernatural force.",
                "label": "NO",
            }
        return {
            "explanation": "The acting force is the Christian God.",
            "label": "YES",
        }

    def _affect(self, text: str) -> dict:
        group = bool(_MOCK_GROUP_RE.search(text))
        return {
            "god_affect_explanation": (
                "The act reaches a community." if group else "The act reaches one person."
            ),
            "god_affect": "GROUP" if group else "INDIVIDUAL",
        }

    def _impact(self, text: str) -> dict:
        punishing = bool(_MOCK_PUNISH_RE.search(text))
        loving = bool(_MOCK_LOVE_RE.search(text))
        if punishing and loving:
            label = "BOTH"
        elif punishing:
            label = "PUNISHING"
        elif loving:
            label = "LOVING"
        else:
            label = "NEUTRAL"
        return {
            "god_impact_explanation": f"The described act reads as {label.lower()}.",
            "god_impact": label,
        }

    def transport(self, config: ModelConfig, prompt: str, schema: OutputSchema) -> str:
        stage = self._stage_for(schema)
        with self._lock:
            self.calls[stage] += 1
        text = self._extract_text(prompt)
        if stage in self.overrides:
            fields = self.overrides[stage](text)
        else:
            fields = getattr(self, f"_{stage}")(text)
        return json.dumps(fields, ensure_ascii=False)
