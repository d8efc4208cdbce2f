"""The run configuration, and the home of every file reader and writer.
`RunConfig`'s fields declare every setting of a run config,
`load_run_config` reads one through them, and `ModelConfig` is what
annotate takes. Every text input is decoded by `read_text`, or by
`read_records` one JSON line at a time, every JSON input parsed by
`read_json`, every keyed CSV by `read_csv` (which imports `csv` only when
called). Every file is written through `replacing`, so an
interrupted command leaves each earlier file as it was; CSVs go out
through `write_csv`. `sha256` is the package's one hash: CPython's own, so
that taking a digest does not load OpenSSL's libcrypto as `hashlib` does.
"""

from __future__ import annotations

import functools
import io
import json
import os
import re
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterator, NamedTuple
from urllib.parse import urlsplit

# hashlib is heavy to load (OpenSSL, about 3.6 MB resident): try CPython's own first
try:
    from _sha256 import sha256  # 3.10-3.11
except ImportError:
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:  # a CPython built without its own hashes
        from hashlib import sha256

ENDPOINT_ENV_VAR = "GODSPELL_ENDPOINT"


class ConfigError(ValueError):
    """Raised for unreadable, inconsistent, or incomplete run configs."""


# the path kinds: an existing file, a list of them, a directory that is made
# if missing and must be writable
FILE, FILES, DIR = "file", "files", "dir"
REQUIRED = object()


class Setting(NamedTuple):
    """One run setting: its config key (`section.name`, or a top-level
    name); its kind, which is bool, int, float, str or dict (that JSON
    type), a path kind, or a tuple of the strings allowed; its default,
    where None leaves an optional path unset, as does a null or empty value
    in the file; and the lower bound of a number."""

    key: str
    kind: object
    default: object = None
    minimum: int | None = None


@dataclass
class ModelConfig:
    """The inference endpoint's settings, as annotate's transports take them."""

    model: str
    endpoint: str = "http://localhost:11434"
    temperature: float = 0.0
    max_retries: int = 3
    timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        try:  # refused here, not retried with backoff at each passage's call
            parts = urlsplit(self.endpoint)
            valid = (parts.scheme in ("http", "https") and parts.hostname and parts.port != 0
                     # what a request line carries: printable ASCII without a space
                     and self.endpoint.isascii() and self.endpoint.isprintable()
                     and " " not in self.endpoint)
        except ValueError:  # .port for a port that is not a number from 0 to 65535
            valid = False
        if not valid:
            raise ValueError(f"endpoint must be an http(s) URL with a host, got {self.endpoint!r}")


def _setting(*declaration):
    return field(metadata={"setting": Setting(*declaration)})


@dataclass
class RunConfig:
    """What a run computes and where things are. Each field but model
    declares one setting, with its config key, kind, default and bound, and
    load_run_config reads the file through these declarations alone. model
    is the ModelConfig built from the model.* settings, under its checks."""

    manifest: Path = _setting("manifest", FILE, REQUIRED)
    analysis_path: Path | None = _setting("analysis", FILE)
    segment_size: int = _setting("segmentation.segment_size", int, 300, 1)
    passage_cap: int = _setting("segmentation.passage_cap", int, 500, 1)
    topics_k: int = _setting("topics.k", int, 65, 1)
    topics_sweeps: int = _setting("topics.sweeps", int, 1000, 1)
    topics_burn_in: int = _setting("topics.burn_in", int, 50, 0)
    topics_optimize_interval: int = _setting("topics.optimize_interval", int, 10, 0)
    topics_seed: int = _setting("topics.seed", int, 0, 0)
    topics_min_count: int = _setting("topics.min_count", int, 5, 1)
    topics_downsample: bool = _setting("topics.downsample", bool, True)
    topics_downsample_seed: int = _setting("topics.downsample_seed", int, 0, 0)
    stopwords_path: Path | None = _setting("topics.stopwords", FILE)
    topic_labels_path: Path | None = _setting("topics.labels", FILE)
    model_backend: str = _setting("model.backend", ("http", "mock"), "http")
    model_name: str = _setting("model.name", str, "gemma3n:e4b")
    endpoint: str = _setting("model.endpoint", str, ModelConfig.endpoint)
    temperature: float = _setting("model.temperature", float, ModelConfig.temperature)
    max_retries: int = _setting("model.max_retries", int, ModelConfig.max_retries)
    timeout: float = _setting("model.timeout", float, ModelConfig.timeout)
    workers: int = _setting("model.workers", int, 4, 1)
    prompt_registry_path: Path | None = _setting("prompts.registry", FILE)
    prompt_versions: dict = _setting("prompts.versions", dict, {})
    annotation_rounds: list[Path] = _setting("evaluation.rounds", FILES, [])
    gold_overrides_path: Path | None = _setting("evaluation.gold_overrides", FILE)
    spotcheck_path: Path | None = _setting("evaluation.spotcheck", FILE)
    output_dir: Path = _setting("output_dir", DIR, "out")
    cache_dir: Path = _setting("cache_dir", DIR)  # unset: output_dir / "cache"
    model: ModelConfig = field(init=False)

    def __post_init__(self) -> None:
        if self.cache_dir is None:
            self.cache_dir = self.output_dir / "cache"
        try:
            self.model = ModelConfig(self.model_name, self.endpoint, self.temperature,
                                     self.max_retries, self.timeout)
        except ValueError as e:
            raise ConfigError(f"model: {e}") from None


# RunConfig attribute -> its declaration
SETTINGS = {f.name: f.metadata["setting"] for f in fields(RunConfig) if f.init}


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", list: "a list", dict: "a JSON object"}


def _typed(key: str, value, kind: type):
    """value, checked to be the JSON type kind stands for (an integer is a
    number too, a number must be finite and within the float range, and a
    boolean is neither); ConfigError naming key otherwise."""
    accepted = (int, float) if kind is float else kind
    if (isinstance(value, accepted) and (kind is bool or not isinstance(value, bool))
            and (kind is not float or abs(value) <= sys.float_info.max)):
        return float(value) if kind is float else value
    raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _value(setting: Setting, value, base: Path):
    """value, checked against setting's kind and lower bound, with a
    relative path taken from base; ConfigError naming the key otherwise."""
    key, kind = setting.key, setting.kind
    if value is REQUIRED:
        raise ConfigError(f"config must name a {key}")
    if setting.default is None and value in (None, ""):
        return None
    if kind == FILES:  # each listed file is required: a null or "" entry is an error
        return [_value(Setting(key, FILE, REQUIRED), path, base)
                for path in _typed(key, value, list)]
    if kind in (FILE, DIR):
        path = base / _typed(key, value, str)
        if kind == FILE and not path.is_file():
            raise ConfigError(f"{key} not found: {path}")
        return path
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key} must be one of {', '.join(kind)}, got {value!r}")
        return value
    value = _typed(key, value, kind)
    if setting.minimum is not None and value < setting.minimum:
        raise ConfigError(f"{key} must be >= {setting.minimum}")
    return value


def load_run_config(config_path: Path | str, *, output_dir: str | None = None,
                    cache_dir: str | None = None, endpoint: str | None = None) -> RunConfig:
    """Load a run config JSON through SETTINGS, the one declaration of each
    setting. A key that no setting declares is a ConfigError, and so is a
    value of the wrong kind or below its bound. Only where things are can
    be set from outside the file: output_dir, cache_dir and endpoint (the
    CLI flags), when given, beat the file, and GODSPELL_ENDPOINT beats it
    for the endpoint. A relative path in the file resolves against the
    file's directory, a relative flag path against the working directory."""
    config_path = Path(config_path)
    if not config_path.is_file():
        raise ConfigError(f"config file not found: {config_path}")
    try:
        payload = read_json(config_path)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    tables = {"": payload}
    for setting in SETTINGS.values():
        section = setting.key.rpartition(".")[0]
        if section not in tables:
            tables[section] = _typed(section, payload.get(section, {}), dict)
    declared = {setting.key for setting in SETTINGS.values()} | set(tables)
    keys = [f"{section}.{name}" if section else name
            for section, table in tables.items() for name in table]
    unknown = [key for key in keys if key not in declared]
    if unknown:
        raise ConfigError(f"unknown setting {', '.join(unknown)}")

    flags = {"output_dir": output_dir, "cache_dir": cache_dir,
             "model.endpoint": endpoint or os.environ.get(ENDPOINT_ENV_VAR)}
    values = {}
    for attr, setting in SETTINGS.items():
        section, _, name = setting.key.rpartition(".")
        if flags.get(setting.key):
            values[attr] = _value(setting, flags[setting.key], Path())
        else:
            values[attr] = _value(setting, tables[section].get(name, setting.default),
                                  config_path.parent)
    config = RunConfig(**values)
    # a directory is made only once every setting has passed its checks
    for attr, setting in SETTINGS.items():
        path = values[attr]
        if setting.kind == DIR and path is not None:
            try:
                path.mkdir(parents=True, exist_ok=True)
                (path / ".write-probe").write_text("", encoding="utf-8")
                (path / ".write-probe").unlink(missing_ok=True)
            except OSError as e:
                raise ConfigError(f"{setting.key} not writable: {path} ({e})") from None
    return config


def read_json(path: Path | str) -> dict:
    """The JSON object in the UTF-8 file at path (with or without a
    byte-order mark); ValueError naming the file when it is not JSON or
    holds another value."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as e:
        raise ValueError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: must hold a JSON object, got {type(payload).__name__}")
    return payload


def read_csv(path: Path | str, key: tuple[str, ...], columns: tuple[str, ...],
             labels: dict[str, tuple[str, ...]] | None = None,
             ) -> dict[tuple[str, ...], tuple[str, ...]]:
    """Each row's cells of columns, keyed by its cells of key, every cell
    stripped, from a CSV file with a header line, decoded by read_text. A
    cell of a column that labels maps is upper-cased and must be one of
    that column's labels. ConfigError naming the file when the header lacks
    a column, and the file and line when a row is too short to have a cell
    for one or has an empty key cell; ValueError naming the file and line
    when a key repeats or a label is not one of its column's."""
    import csv

    with io.StringIO(read_text(path, newline=""), newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in (*key, *columns) if c not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{path}: missing column {', '.join(map(repr, missing))}")
        rows: dict[tuple[str, ...], tuple[str, ...]] = {}
        for row in reader:
            line = f"{path}: line {reader.line_num}"
            short = [c for c in (*key, *columns)
                     if row[c] is None or c in key and not row[c].strip()]
            if short:
                raise ConfigError(f"{line}: no cell for column {', '.join(map(repr, short))}")
            for c, allowed in (labels or {}).items():
                if row[c].strip().upper() not in allowed:
                    raise ValueError(f"{line}: {c} {row[c].strip()!r} is not one of "
                                     + ", ".join(allowed))
                row[c] = row[c].upper()
            cells = tuple(row[c].strip() for c in key)
            if cells in rows:
                raise ValueError(f"{line}: repeated " + ", ".join(
                    f"{c} {cell!r}" for c, cell in zip(key, cells)))
            rows[cells] = tuple(row[c].strip() for c in columns)
        return rows


def read_records(path: Path | str, make: Callable, what: str) -> Iterator:
    """make(each non-blank line's JSON value), the file at path decoded as
    read_text decodes it, one line at a time; ValueError naming the file and
    line of a line that is not JSON or that make refuses."""
    try:
        with Path(path).open(encoding="utf-8-sig") as fh:
            for number, line in enumerate(fh, 1):
                if line.strip():
                    try:
                        yield make(json.loads(line))
                    except (ValueError, TypeError, AttributeError) as e:
                        raise ValueError(f"{path} line {number} is not {what}: {e}") from None
    except UnicodeDecodeError as e:
        raise ValueError(f"{path} is not UTF-8: {e}") from None


def read_text(path: Path | str, newline: str | None = None) -> str:
    """The text of the UTF-8 file at path, without a byte-order mark, its
    line ends read as open's newline reads them; ValueError naming the file
    when it is not UTF-8."""
    try:
        with Path(path).open(encoding="utf-8-sig", newline=newline) as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ValueError(f"{path} is not UTF-8: {e}") from None


# a temporary file of replacing: the name it stands in for, the writer's pid, 8 random bytes
_TEMPORARY = re.compile(r".+\.tmp-([0-9]+)-[0-9a-f]{16}")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0 only checks that pid names a process
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):  # another user's process, or a number past any pid
        pass
    return True


@functools.cache
def _remove_orphans(directory: str) -> None:
    """Remove each temporary file of replacing in the absolute directory
    whose writer's pid names no live process: what a killed command left.
    A reused pid only leaves its file in place. Cached, so once per
    directory and process: a listing costs about 30 ms at the 43k entries
    of a paper-scale cache directory, and one per write would make a run
    quadratic. OSError, not cached, when the directory cannot be listed."""
    with os.scandir(directory) as entries:
        for entry in entries:
            match = _TEMPORARY.fullmatch(entry.name)
            if match and not _alive(int(match[1])):
                with suppress(OSError):  # another user's file in a shared directory
                    os.unlink(entry.path)


@contextmanager
def replacing(path: Path | str) -> Iterator[Path]:
    """A fresh path beside path for the block to write, os.replace'd onto
    path when the block ends, or removed on any exception, KeyboardInterrupt
    included, leaving path as it was. No fsync: it guards against a failing
    process, not a power loss. The fresh path is named
    ``<path>.tmp-<pid>-<hex>``; a SIGKILL or the out-of-memory killer can
    leave it behind, and the first write of a later process into the same
    directory removes it."""
    path = Path(path)
    if os.name == "posix":  # os.kill(pid, 0) ends the process elsewhere
        with suppress(OSError):  # a missing directory fails at the write itself
            _remove_orphans(os.path.abspath(path.parent))
    tmp = Path(f"{path}.tmp-{os.getpid()}-{os.urandom(8).hex()}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:  # a replaced tmp is gone, so only a failure removes it
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    import csv

    with replacing(path) as tmp, tmp.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
