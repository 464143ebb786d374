"""JSON documents, validation, and machine-readable reports.

Document schema (strict): a JSON object with keys exactly

    name    string
    dim     int, = dim_k + dim_h + dim_n, at most tensor.MAX_DIM
    dim_k, dim_h, dim_n   ints >= 0
    bracket list of {"i": int, "j": int, "k": int, "c": number}, i < j
    ip      optional p x p inner product, p = dim_h+dim_n, checked at RANK_TOL; the identity is no ip
    meta    optional free-form object

Both input formats, algebra and construction documents, are read here
alone.  A bracket is read once, into its canonical ``AlgebraTensor``, which
the document holds, writes and hashes: every listing of it is one document.

A document file is read once per process: ``load`` opens the path (the
catalog is asked only when no file is there), reads the file's text
and looks it up in a memo keyed on that text (``_document``, the
``MEMO_SIZE`` most recent), which parses it, reads it with
``document_from_dict`` and hashes it on a miss.  So ``fit``, ``battery``
and ``stratify`` of one file share one frozen ``AlgebraDocument``, whose
``ip`` is read-only and whose hash is computed once; a file rewritten with
other text is read again, and a text that fails is not kept, so each
``parse-error`` names the path it came from.

Reports are deterministic: identical input and configuration produce
byte-identical JSON (sorted keys, no timestamps, input content hash).
"""

from __future__ import annotations

import errno
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
# a str's JSON text, as json.dumps writes it; TypeError on anything else
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

import numpy as np

from . import catalog as _catalog
from . import tensor as _tensor
from .constructions import ConstructionData
from .decomposition import MEMO_SIZE, DecompositionError, MetricDecomposition, decompose
from .tensor import DEFAULT_TOL, AlgebraTensor, Check

TOOL_VERSION = "0.1.0"

REQUIRED_KEYS = {"name", "dim", "dim_k", "dim_h", "dim_n", "bracket"}
ALLOWED_KEYS = REQUIRED_KEYS | {"ip", "meta"}
CONSTRUCTION_KEYS = {"name", "c", "nil", "reductive", "theta"}


class DocumentError(ValueError):
    def __init__(self, code: str, detail: str):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}")


@dataclass(frozen=True)
class AlgebraDocument:
    name: str
    dim_k: int
    dim_h: int
    dim_n: int
    bracket: AlgebraTensor
    ip: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    _sha256: str = field(default="", init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.bracket.dim

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "dim": self.dim,
            "dim_k": self.dim_k,
            "dim_h": self.dim_h,
            "dim_n": self.dim_n,
            "bracket": [{"i": i, "j": j, "k": k, "c": c} for i, j, k, c in self.bracket.entries],
        }
        if self.ip is not None:
            out["ip"] = [[float(x) for x in row] for row in np.asarray(self.ip)]
        if self.meta:
            out["meta"] = self.meta
        return out

    def dumps(self) -> str:
        return _json_text(self.to_json_dict())

    def content_hash(self) -> str:
        """The sha256 of the document's compact sorted JSON; computed on the first call and kept."""
        if not self._sha256:
            payload = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_sha256", hashlib.sha256(payload.encode()).hexdigest())
        return self._sha256


def _require_keys(raw, required: set, allowed: set, what: str) -> dict:
    """raw when it is an object whose keys include ``required`` and lie inside ``allowed``."""
    if not isinstance(raw, dict):
        raise DocumentError("not-an-object", f"{what} must be a JSON object")
    extra = set(raw) - allowed
    if extra:
        raise DocumentError("unknown-keys", f"unexpected keys {sorted(extra)} in {what}")
    missing = required - set(raw)
    if missing:
        raise DocumentError("missing-keys", f"missing keys {sorted(missing)} in {what}")
    return raw


def _dimension(value, what: str, most: int) -> int:
    """value when it is a non-bool integer in [0, most]."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise DocumentError("bad-dimension", f"{what} must be a nonnegative integer")
    if value > most:
        raise DocumentError("bad-dimension", f"{what} must be at most {most}")
    return value


def _finite_number(value, code: str, what: str) -> float:
    """value as a float when it is a non-bool JSON number of finite float value."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise DocumentError(code, f"{what} must be a finite number")


def _numeric_array(raw, shape: tuple, code: str, what: str) -> np.ndarray:
    """raw as a float array of the given shape with finite entries, each a non-bool JSON number.

    No JSON array has a shape with a zero extent, so for one any empty array is read.
    """
    try:
        arr = np.asarray(raw)
    except ValueError as err:  # a ragged list
        raise DocumentError(code, f"{what} is not a numeric array: {err}") from None
    if arr.dtype.kind not in "iuf":  # strings, bools, None, integers beyond int64
        raise DocumentError(code, f"{what} is not a numeric array")
    if arr.size == 0 and 0 in shape:
        return np.zeros(shape)
    if arr.shape != shape:
        raise DocumentError(code, f"{what} must have shape {shape}, got {arr.shape}")
    # numpy reads a bool among numbers as 1: [[True, 0], [0, 1]] is int64, [1.5, True] float64
    if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(raw, dtype=object).flat):
        raise DocumentError(code, f"{what} entries must be numbers, not booleans")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise DocumentError(code, f"{what} entries must be finite numbers")
    return arr


def _bracket(raw, dim: int, what: str) -> AlgebraTensor:
    """The tensor of a list of entries {i, j, k, c}: integer indices below dim, i < j, c finite."""
    if not isinstance(raw, list):
        raise DocumentError("bad-bracket", f"{what} must be a list")
    entries = []
    for pos, e in enumerate(raw):
        where = f"{what} entry {pos}"
        if not isinstance(e, dict) or set(e) != {"i", "j", "k", "c"}:
            raise DocumentError("bad-bracket-entry", f"{where} must have keys i, j, k, c")
        i, j, k = e["i"], e["j"], e["k"]
        for idx in (i, j, k):
            if not isinstance(idx, int) or isinstance(idx, bool):
                raise DocumentError("bad-bracket-entry", f"{where}: indices must be integers")
            if not 0 <= idx < dim:
                raise DocumentError("index-out-of-range", f"{where}: index {idx} out of range")
        if not i < j:
            raise DocumentError("bad-bracket-entry", f"{where}: requires i < j")
        entries.append((i, j, k, _finite_number(e["c"], "bad-bracket-entry", f"{where}: c")))
    return AlgebraTensor(dim, tuple(entries))


def document_from_dict(raw: dict) -> AlgebraDocument:
    _require_keys(raw, REQUIRED_KEYS, ALLOWED_KEYS, "document")
    most = _tensor.MAX_DIM
    dims = {key: _dimension(raw[key], key, most) for key in ("dim", "dim_k", "dim_h", "dim_n")}
    if dims["dim"] != dims["dim_k"] + dims["dim_h"] + dims["dim_n"]:
        raise DocumentError("dimension-sum", "dim must equal dim_k + dim_h + dim_n")
    bracket = _bracket(raw["bracket"], dims["dim"], "bracket")
    ip = None
    if "ip" in raw:
        dp = dims["dim_h"] + dims["dim_n"]
        ip = _numeric_array(raw["ip"], (dp, dp), "bad-ip", "ip")
    meta = raw.get("meta", {})
    if not isinstance(meta, dict):
        raise DocumentError("bad-meta", "meta must be an object")
    name = raw["name"]
    if not isinstance(name, str):
        raise DocumentError("bad-name", "name must be a string")
    return AlgebraDocument(name, dims["dim_k"], dims["dim_h"], dims["dim_n"], bracket, ip, meta)


def construction_from_dict(raw) -> tuple[str, ConstructionData]:
    """The name and data of a construction document, read by the rules of algebra documents.

    Keys, dimensions, bracket entries and numbers follow the same helpers;
    ``nil.dim + reductive.dim`` is at most ``tensor.MAX_DIM``; ``d1``,
    ``theta`` and the optional ``ip``s (null means identity) must have the
    shapes the dimensions give.  Anything else raises DocumentError.
    """
    _require_keys(raw, CONSTRUCTION_KEYS, CONSTRUCTION_KEYS, "construction document")
    if not isinstance(raw["name"], str):
        raise DocumentError("bad-name", "name must be a string")
    nil = _require_keys(raw["nil"], {"dim", "d1"}, {"dim", "bracket", "d1", "ip"}, "nil")
    red = _require_keys(raw["reductive"], {"dim"}, {"dim", "dim_k", "bracket", "ip"}, "reductive")
    most = _tensor.MAX_DIM
    dn, du = _dimension(nil["dim"], "nil dim", most), _dimension(red["dim"], "reductive dim", most)
    _dimension(dn + du, "nil dim + reductive dim", most)  # the dimension g = u + n is assembled in
    dim_k = _dimension(red.get("dim_k", 0), "reductive dim_k", du)

    def ip(part: dict, dim: int, what: str) -> np.ndarray | None:
        raw_ip = part.get("ip")
        return None if raw_ip is None else _numeric_array(raw_ip, (dim, dim), "bad-ip", what)

    data = ConstructionData(
        n_bracket=_bracket(nil.get("bracket", []), dn, "nil bracket"),
        c=_finite_number(raw["c"], "bad-constant", "c"),
        d1=_numeric_array(nil["d1"], (dn, dn), "bad-array", "d1"),
        u_bracket=_bracket(red.get("bracket", []), du, "reductive bracket"),
        dim_k=dim_k,
        theta=_numeric_array(raw["theta"], (du, dn, dn), "bad-array", "theta"),
        ip_n=ip(nil, dn, "nil ip"),
        ip_h=ip(red, du - dim_k, "reductive ip"),
    )
    return raw["name"], data


def document_from_catalog(entry: "_catalog.CatalogEntry") -> AlgebraDocument:
    dims = (entry.dim_k, entry.dim_h, entry.dim_n)
    return AlgebraDocument(entry.name, *dims, entry.tensor(), meta=dict(entry.meta))


# the errors of opening a path that Path.exists reads as no file there
_NO_FILE = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


def _parsed(path: Path, fh, parse):
    """parse of the text of fh, the file opened at path; a file that cannot be read or parsed
    raises DocumentError."""
    try:
        return parse(fh.read())
    except OSError as err:
        raise DocumentError("not-readable", f"{path}: {err.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise DocumentError("parse-error", f"{path}: {err}") from None


def read_json(path: Path):
    """The JSON value in the file at path; a file that cannot be read or parsed raises DocumentError."""
    try:
        fh = path.open(encoding="utf-8")
    except OSError as err:  # a directory, a missing or unreadable file
        raise DocumentError("not-readable", f"{path}: {err.strerror}") from None
    with fh:
        return _parsed(path, fh, json.loads)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _document(text: str) -> AlgebraDocument:
    """The document a file's text holds, hashed; the one caller of ``document_from_dict``.

    Its ``ip`` is made read-only: the document is shared by every later load
    of the same text.  A text that raises is not kept.
    """
    doc = document_from_dict(json.loads(text))
    if doc.ip is not None:
        doc.ip.flags.writeable = False
    doc.content_hash()
    return doc


def load(path_or_name: str) -> AlgebraDocument:
    """Load a document from a JSON file, read once per text (``_document``), or from the catalog by
    name when no file is at that path: the path is opened first, and the catalog asked only then."""
    path = Path(path_or_name)
    try:
        fh = path.open(encoding="utf-8")
    except OSError as err:
        if err.errno not in _NO_FILE:  # a directory, an unreadable file
            raise DocumentError("not-readable", f"{path}: {err.strerror}") from None
    except ValueError:  # a path with a NUL byte, which names no file
        pass
    else:
        with fh:
            return _parsed(path, fh, _document)
    try:
        return document_from_catalog(_catalog.get(path_or_name))
    except KeyError:
        raise DocumentError(
            "not-found", f"{path_or_name!r} is neither a file nor a catalog name"
        ) from None


def document_from_decomposition(
    dec: MetricDecomposition, name: str, meta: dict | None = None
) -> AlgebraDocument:
    """The document of dec's bracket in its orthonormal frame, which needs no ``ip``."""
    dims = (dec.dim_k, dec.dim_h, dec.dim_n)
    return AlgebraDocument(name, *dims, dec.bracket_on, meta=meta or {})


def validate(doc: AlgebraDocument, tol: float = DEFAULT_TOL):
    """(decomposition, violations): decomposition is None when invalid.

    The decomposition comes from ``decompose``, so it is the one every
    command, build and extension on the same metric Lie algebra in the
    process is served: the document's name and meta do not count.
    """
    try:
        return decompose(doc.bracket, doc.dim_k, doc.dim_h, doc.dim_n, doc.ip, tol), []
    except DecompositionError as err:
        return None, err.violations


# ---------------------------------------------------------------------------
# JSON text
# ---------------------------------------------------------------------------

_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(v) -> str:
    text = float.__repr__(v)
    return _NONFINITE.get(text, text)


# the text of a scalar, by its exact type; numpy scalars are written as
# numbers, except np.bool_, which is neither an integer nor a float: its str
_SCALARS = {
    str: _string,
    float: _float_text,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
    np.float64: _float_text,
    np.int64: lambda v: int.__repr__(int(v)),
    np.bool_: lambda v: _string(str(v)),
}


def _enclosed(texts: list[str], indent: str, brackets: str) -> str:
    """The texts one to a line, two spaces in from ``indent``, between the two brackets."""
    if not texts:
        return brackets
    inner = indent + "  "
    return brackets[0] + inner + ("," + inner).join(texts) + indent + brackets[1]


def _array_text(items, indent: str) -> str:
    """The JSON array of a list or tuple, each item made JSON as ``_json_text`` makes it."""
    inner = indent + "  "
    if items and isinstance(items[0], float):
        sep = "," + inner
        try:  # a row of floats, as ndarray.tolist gives it
            text = sep.join(map(float.__repr__, items))
        except TypeError:  # an item that is not a float
            pass
        else:
            if "n" in text:  # nan, inf or -inf: json's NaN, Infinity, -Infinity
                text = sep.join(map(_float_text, items))
            return "[" + inner + text + indent + "]"
    return _enclosed([_json_text(x, inner) for x in items], indent, "[]")


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, byte for byte, of value made JSON.

    An ndarray is written as nested lists, a numpy integer or float as a
    number, a tuple as a list, and any other value that JSON has no type for
    as its ``str``.  ``indent`` is the newline and indentation of the line
    value starts on.  A key that is not a ``str`` raises TypeError.
    """
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    if isinstance(value, (list, tuple)):
        return _array_text(value, indent)
    if isinstance(value, dict):
        inner = indent + "  "
        fields = [f"{_string(k)}: {_json_text(v, inner)}" for k, v in sorted(value.items())]
        return _enclosed(fields, indent, "{}")
    if isinstance(value, np.ndarray):
        return _json_text(value.tolist(), indent)
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (float, np.floating)):
        return _float_text(float(value))
    return _string(str(value))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

# the indentation of a check record in a report, and of the values inside one
_CHECK = "\n    "
_RECORD = _CHECK + "  "


@dataclass
class Report:
    command: str
    input_name: str
    input_hash: str
    tolerance: float
    checks: list[Check] = field(default_factory=list)
    classification: str = ""
    errors: list[dict] = field(default_factory=list)
    results: dict = field(default_factory=dict)

    def add(self, record: Check):
        self.checks.append(record)

    @property
    def passed(self) -> bool:
        return not self.errors and all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 0 if self.passed else 1

    def dumps(self) -> str:
        """The report as JSON: sorted keys, indent 2; each check's ``tolerance`` is its bound."""
        records = []
        for c in self.checks:
            fields = ['"anchor": ' + _string(c.anchor)]
            if c.info:
                fields.append('"info": ' + _json_text(c.info, _RECORD))
            fields.append('"name": ' + _string(c.name))
            fields.append('"passed": true' if c.passed else '"passed": false')
            if c.bound is not None:
                fields.append('"tolerance": ' + _float_text(float(c.bound)))
            if c.value is not None:
                fields.append('"value": ' + _json_text(c.value, _RECORD))
            records.append(_enclosed(fields, _CHECK, "{}"))
        top = "\n  "
        config = {"tolerance": float(self.tolerance)}
        source = {"name": self.input_name, "sha256": self.input_hash}
        fields = [
            '"checks": ' + _enclosed(records, top, "[]"),
            '"classification": ' + _string(self.classification),
            '"command": ' + _string(self.command),
            '"config": ' + _json_text(config, top),
            '"errors": ' + _json_text(self.errors, top),
            '"input": ' + _json_text(source, top),
            '"passed": ' + _json_text(self.passed),
            '"results": ' + _json_text(self.results, top),
            '"tool": "homsol"',
            '"version": ' + _string(TOOL_VERSION),
        ]
        return _enclosed(fields, "\n", "{}")
