"""Run configuration: defaults, flat key-value config files, and manifests.

Precedence is CLI flag > config file > built-in default. The hyperparameter
defaults are the published operating point of the pipeline (margin 0.5,
theta_p 0.3, dropout 0.5, lr 1e-4, 200 paths of length <= 3, 1000-node schema
graphs with a 500-node one-hop cap, prune target 100, 40 prune + 30 joint
epochs). Every command echoes the resolved configuration into a manifest next
to its outputs, together with a config hash and a digest of each file it read.

Every text input is read by ``read_blocks``, the one reader. ``read_lines``
adds the one comment rule, and ``read_bulk`` is the one driver of the loaders
that parse a block at once and re-parse it line by line when that declines.
Every output is written by ``atomic_write``, the one writer, which renames a
finished file into place; ``write_json`` and ``write_jsonl`` are the one JSON
format on top of it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, TypeVar

T = TypeVar("T")


class InputError(ValueError):
    """Malformed input: ``<path>:<line>: <msg>``, or ``<path>: <msg>`` for a
    fault with no line, or ``<msg>`` alone for one with no file."""

    def __init__(
        self, path: Optional[Path | str] = None, lineno: Optional[int] = None, msg: str = ""
    ):
        super().__init__(path, lineno, msg)
        self.path = path
        self.lineno = lineno
        self.msg = msg

    def __str__(self) -> str:
        if self.path is None:
            return self.msg
        if self.lineno is None:
            return f"{self.path}: {self.msg}"
        return f"{self.path}:{self.lineno}: {self.msg}"


@dataclass
class RunConfig:
    # inputs
    kg_edges: Optional[Path] = None
    relations: Optional[Path] = None
    kg_index: Optional[Path] = None
    entity_embeddings: Optional[Path] = None
    contexts: Optional[Path] = None
    text_features: Optional[Path] = None
    queries: Optional[Path] = None
    synonyms: Optional[Path] = None
    checkpoint: Optional[Path] = None
    out_dir: Path = Path("runs")
    # dimensions
    d: int = 128
    D: int = 300
    k: int = 3
    # retrieval
    schema_budget: int = 1000
    one_hop_cap: int = 500
    closed_budget: int = 500
    curve_budgets: tuple[int, ...] = (50, 100, 250, 500, 1000)
    # pruning / ranking
    prune_target: int = 100
    theta_p: float = 0.3
    n_paths: int = 200
    # training
    margin: float = 0.5
    dropout: float = 0.5
    lr: float = 1e-4
    optimizer: str = "adam"
    epochs_prune: int = 40
    epochs_joint: int = 30
    batch_size: int = 8
    semi_hard: bool = True
    ptm_mode: str = "zero"
    # run control
    seed: int = 0
    mode: str = "open"
    workers: int = 1

    def validate(self) -> None:
        if self.mode not in ("open", "closed"):
            raise InputError(msg=f"mode must be open or closed, got {self.mode!r}")
        if not 0.0 <= self.theta_p <= 1.0:
            raise InputError(msg="theta_p must lie in [0, 1]")
        if not 0.0 <= self.dropout < 1.0:
            raise InputError(msg="dropout must lie in [0, 1)")
        if self.ptm_mode not in ("file", "zero"):
            raise InputError(msg=f"ptm_mode must be file or zero, got {self.ptm_mode!r}")
        if self.ptm_mode == "file" and self.text_features is None:
            raise InputError(msg="ptm_mode=file needs a text_features path")
        if self.optimizer not in ("adam", "sgd"):
            raise InputError(msg=f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if self.k < 1 or self.n_paths < 1 or self.batch_size < 1:
            raise InputError(msg="k, n_paths, and batch_size must be positive")
        if min(self.d, self.D, self.schema_budget, self.closed_budget, self.prune_target) < 1:
            raise InputError(msg="dimensions and budgets must be positive")
        if min(self.one_hop_cap, self.epochs_prune, self.epochs_joint) < 0:
            raise InputError(msg="one_hop_cap and epoch counts must be >= 0")
        if self.workers < 1:
            raise InputError(msg="workers must be >= 1")
        if not 0.0 < self.lr < math.inf:
            raise InputError(msg=f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.margin < math.inf:
            raise InputError(msg=f"margin must be finite and >= 0, got {self.margin}")
        if list(self.curve_budgets) != sorted(self.curve_budgets):
            raise InputError(msg="curve_budgets must be sorted ascending")
        if any(b < 1 for b in self.curve_budgets):
            raise InputError(msg="curve_budgets must be >= 1")

    @property
    def budget(self) -> int:
        """Schema budget effective for the configured mode."""
        return self.schema_budget if self.mode == "open" else self.closed_budget

    def set_field(self, key: str, raw: str, base_dir: Optional[Path] = None) -> None:
        """Assign one field from its textual form, coercing to the field type."""
        field_map = {f.name: f for f in dataclasses.fields(self)}
        if key not in field_map:
            raise InputError(msg=f"unknown configuration key {key!r}")
        default = field_map[key].default
        raw = raw.strip()
        if key == "curve_budgets":
            value = tuple(int(x) for x in raw.replace(",", " ").split())
        elif isinstance(default, bool):
            if raw.lower() in ("1", "true", "yes", "on"):
                value = True
            elif raw.lower() in ("0", "false", "no", "off"):
                value = False
            else:
                raise InputError(msg=f"{key}: cannot parse boolean from {raw!r}")
        elif isinstance(default, int):
            value = int(raw)
        elif isinstance(default, float):
            value = float(raw)
        elif key in ("mode", "ptm_mode", "optimizer"):
            value = raw
        else:  # path-valued
            value = Path(raw)
            if base_dir is not None and not value.is_absolute():
                value = base_dir / value
        setattr(self, key, value)

    def to_json_obj(self) -> dict:
        obj = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Path):
                value = str(value)
            elif isinstance(value, tuple):
                value = list(value)
            obj[f.name] = value
        return obj

    def config_hash(self) -> str:
        payload = json.dumps(self.to_json_obj(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def load_config(path: Optional[Path | str], overrides: Optional[dict[str, str]] = None) -> RunConfig:
    """Build a config from an optional file plus textual overrides.

    File format is ``key = value`` lines, read by ``read_lines``; relative
    paths are resolved against the config file's directory.
    """
    cfg = RunConfig()
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise InputError(msg=f"config file {path} does not exist")
        for lineno, line in read_lines(path):
            key, eq, raw = line.partition("=")
            if not eq:
                raise InputError(path, lineno, "expected 'key = value'")
            try:
                cfg.set_field(key.strip(), raw, path.parent)
            except ValueError as exc:
                raise InputError(path, lineno, str(exc)) from None
    for key, raw in (overrides or {}).items():
        try:
            cfg.set_field(key, raw)
        except ValueError as exc:
            raise InputError(msg=f"--set {key}: {exc}") from None
    cfg.validate()
    return cfg


#: Characters per block that ``read_blocks`` reads, looked up at each call.
BLOCK_CHARS = 1 << 16


def read_blocks(path: Path | str) -> Iterator[tuple[int, list[str]]]:
    """``(number of the first line, lines)`` for each block of whole lines of
    about ``BLOCK_CHARS`` characters of a UTF-8 text file, each line with its
    ending (``"\\n"``, by universal newlines), none skipped: the one reader.

    A line holding a byte that is not UTF-8 raises ``InputError(path,
    lineno, "not UTF-8 text")`` after the lines before it are yielded, so
    the first bad line in file order is the one reported.
    """
    lineno = 1
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        while lines := f.readlines(BLOCK_CHARS):
            text = "".join(lines)
            if not text.isascii():  # an escaped byte is a lone surrogate
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError as exc:
                    bad = text.count("\n", 0, exc.start)
                    if bad:
                        yield lineno, lines[:bad]
                    raise InputError(path, lineno + bad, "not UTF-8 text") from None
            yield lineno, lines
            lineno += len(lines)


def _content(first_lineno: int, lines: list[str]) -> Iterator[tuple[int, str]]:
    """The numbered lines of a block that are neither blank (whitespace only)
    nor a comment (first non-blank character ``#``), without their ending."""
    for lineno, line in enumerate(lines, first_lineno):
        head = line.lstrip()
        if head and head[0] != "#":
            yield lineno, line.rstrip("\n")


def read_lines(path: Path | str) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` for each line of ``read_blocks(path)`` that is
    neither blank nor a comment, its ending removed."""
    for first_lineno, lines in read_blocks(path):
        yield from _content(first_lineno, lines)


def read_bulk(path: Path | str, bulk: Callable, parse_line: Callable, gather: Callable) -> Iterator:
    """``bulk(lines)`` for each block of ``read_blocks(path)``: the one
    driver of the loaders that parse a block at once.

    A block holding a comment, or one ``bulk`` declines (None), is parsed
    line by line instead: ``gather`` of the ``parse_line`` results other
    than None over the lines ``read_lines`` would yield, a ``ValueError``
    becoming ``InputError(path, lineno, msg)``. ``bulk`` must decline a block
    with a line that ``parse_line`` refuses, so that line is the one named.
    """
    for first_lineno, lines in read_blocks(path):
        comment = "#" in "".join(lines) and any(line.lstrip()[:1] == "#" for line in lines)
        block = None if comment else bulk(lines)
        if block is None:
            rows = []
            for lineno, line in _content(first_lineno, lines):
                try:
                    rows.append(parse_line(line))
                except ValueError as exc:
                    raise InputError(path, lineno, str(exc)) from None
            block = gather([row for row in rows if row is not None])
        yield block


def new_qid(obj: dict, seen: set[str]) -> str:
    """``obj["qid"]`` as a string, added to ``seen``; a repeat raises ``ValueError``."""
    qid = str(obj["qid"])
    if qid in seen:
        raise ValueError(f"duplicate qid {qid!r}")
    seen.add(qid)
    return qid


def read_jsonl(path: Path | str, build: Callable[[dict], T]) -> list[T]:
    """``build`` applied to each object of a JSON Lines file read by
    ``read_lines``.

    Bad JSON, a missing field and any ``TypeError``/``ValueError`` from
    ``build`` become one ``InputError(path, lineno, ...)``.
    """
    items = []
    for lineno, line in read_lines(path):
        try:
            items.append(build(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise InputError(path, lineno, f"bad JSON: {exc.msg} at column {exc.colno}") from None
        except KeyError as exc:
            raise InputError(path, lineno, f"missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InputError(path, lineno, str(exc)) from None
    return items


@contextmanager
def atomic_write(path: Path | str, mode: str = "w") -> Iterator[IO]:
    """Open ``<path>.tmp`` for writing and ``os.replace`` it onto ``path`` once
    the block ends without error.

    A write that fails partway leaves ``path`` as it was and no ``.tmp``
    behind. Text mode writes UTF-8.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def sha256_file(path: Path | str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path: Path | str, obj) -> None:
    """``obj`` as indented JSON with sorted keys and a final newline."""
    with atomic_write(path) as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_jsonl(path: Path | str, objs: Iterable) -> None:
    """One JSON object with sorted keys per line, for each of ``objs``."""
    with atomic_write(path) as f:
        for obj in objs:
            f.write(json.dumps(obj, sort_keys=True) + "\n")


def write_manifest(out_dir: Path | str, command: str, cfg: RunConfig, inputs: dict[str, Path]) -> Path:
    """Record provenance (config hash, seed, a digest of each input file read)
    beside outputs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "config": cfg.to_json_obj(),
        "config_hash": cfg.config_hash(),
        "inputs": {name: sha256_file(p) for name, p in sorted(inputs.items())},
    }
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path
