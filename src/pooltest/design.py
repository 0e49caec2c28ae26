"""Non-adaptive pool designs: random constructions and file I/O.

A design is a binary inclusion matrix with T tests (rows) and n items
(columns), stored sparsely as index lists. Items and tests are numbered from
1 in every public interface.

File format (one design per file):
    line 1:        "T n"
    lines 2..T+1:  the sorted item indices included in that test, separated
                   by single spaces; an empty line is an empty test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DesignFormatError, ParameterError
from .model import _distinct, _increasing, _items
from .util import LN2, require_choice, require_count, require_real, round_half_up


class TestDesign:
    """Sparse T x n binary design.

    ``col(i)`` lists the tests containing item i and ``row(t)`` the items in
    test t, both sorted, both 1-based. Each kind of design stores one form.
    An ncc design stores its raw draws: an (n, L) int32 matrix whose line
    i - 1 holds item i's L tests, 0-based, repeats included. Every other
    design stores its column view (``col_flat``, ``col_ptr``). The column
    view of a design that holds draws is built from them on first read, by
    _col_view, and kept; the row view (``row_flat``, ``row_ptr``) is the
    column view transposed, built from it on first read, by _row_view, and
    kept. Decoders and analyses read a design through ``_columns``,
    ``_clean`` and ``_empty_columns``, each of which reads the draws when
    they are held, so no trial builds either view; so do ``entry_count``,
    ``__hash__`` and ``__repr__``.

    The flats are in the packed-key dtype of _key_layout (int32 whenever the
    keys fit), which ``row``, ``col`` and ``cols_of`` return; the pointers
    are int64.

    Build designs with ``from_rows``, ``load_design`` or the random
    constructors; the constructor takes the column view,
    ``TestDesign(n, T, col_flat, col_ptr, metadata)``.
    """

    __slots__ = ("n", "T", "metadata", "_draws", "_cols", "_rows")

    def __init__(self, n, T, col_flat, col_ptr, metadata=None):
        self.n = int(n)
        self.T = int(T)
        self.metadata = dict(metadata or {})
        self._draws = None  # an ncc design's (n, L) draws, 0-based
        self._cols = (col_flat, col_ptr)  # None until first read when draws are held
        self._rows = None  # (row_flat, row_ptr) once the row view is read

    @property
    def col_flat(self) -> np.ndarray:
        """The tests of every item, item after item (the column view's flat)."""
        return self._col_arrays()[0]

    @property
    def col_ptr(self) -> np.ndarray:
        """CSR pointers of ``col_flat``: item i spans [col_ptr[i - 1], col_ptr[i])."""
        return self._col_arrays()[1]

    @property
    def row_flat(self) -> np.ndarray:
        """The items of every test, test after test (the row view's flat)."""
        return self._row_arrays()[0]

    @property
    def row_ptr(self) -> np.ndarray:
        """CSR pointers of ``row_flat``: test t spans [row_ptr[t - 1], row_ptr[t])."""
        return self._row_arrays()[1]

    def _col_arrays(self) -> tuple:
        if self._cols is None:
            self._cols = _col_view(self)
        return self._cols

    def _row_arrays(self) -> tuple:
        if self._rows is None:
            self._rows = _row_view(self.n, self.T, self.col_flat, self.col_ptr)
        return self._rows

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, n: int, rows, metadata=None) -> "TestDesign":
        """Build from per-test item lists, read by _rows_design."""
        n = require_count("n", n)
        rows = list(rows)
        if not rows:
            raise ParameterError("need at least one test")
        return _rows_design(n, rows, metadata, "test", 1)

    @classmethod
    def _from_draws(cls, n, T, draws, metadata=None) -> "TestDesign":
        """Hold an (n, L) matrix of 0-based tests, line i - 1 for item i."""
        design = cls(n, T, None, None, metadata)
        design._draws, design._cols = draws, None
        return design

    # -- readers of both stored forms ----------------------------------------

    def _columns(self, items) -> tuple:
        """(tests, owner): the distinct sorted 1-based tests of each given
        item in turn, in the flats' dtype, and each entry's owner as a
        position in ``items``. An item in no test owns no entry."""
        idx = np.asarray(items, dtype=np.int64) - 1
        # model._items's item range and wording, read without a copy on the trial path
        if idx.size and not (0 <= idx.min() and idx.max() < self.n):
            require_count("item", int(idx.min() if idx.min() < 0 else idx.max()) + 1, high=self.n)
        if self._draws is None:
            col_flat, col_ptr = self._cols
            starts = col_ptr[idx]
            lens = col_ptr[idx + 1] - starts
            # entry j of the output, in segment s, reads col_flat[starts[s] + j - (where s begins)]
            offsets = np.repeat(starts - np.cumsum(lens) + lens, lens)
            return col_flat[offsets + np.arange(offsets.size)], np.repeat(np.arange(idx.size), lens)
        # pack each draw with its item's position, sort, and drop repeated draws
        bt, _, dtype = _key_layout(max(idx.size, 1), self.T)
        # np.take copies each (n, L) draw row as one block; draws[idx] goes through
        # numpy's general fancy-index loop, about 8x slower at n = 4096, k = 1783,
        # L = 2 (12.4 against 1.5 us) and about 13x at n = 2**20, k = 2**18
        key = np.take(self._draws, idx, axis=0).astype(dtype, copy=False)
        key |= (np.arange(idx.size, dtype=dtype) << bt)[:, None]
        key = _distinct(key.ravel())
        tests = (key & ((1 << bt) - 1)).astype(_key_layout(self.n, self.T)[2], copy=False)
        tests += 1
        return tests, (key >> bt).astype(np.intp, copy=False)

    def _clean(self, positive) -> np.ndarray:
        """Boolean mask over items: True when the item is in no negative test."""
        if self._draws is not None:
            negative = np.logical_not(positive).view(np.uint8)
            # one gather per draw slot, every index in range; .any(axis=1)
            # over one (n, L) gather is about three times slower
            hit = np.take(negative, self._draws[:, 0], mode="wrap")
            for j in range(1, self._draws.shape[1]):
                hit |= np.take(negative, self._draws[:, j], mode="wrap")
            return hit == 0
        col_flat, col_ptr = self._cols
        negative = np.zeros(self.T + 1, dtype=np.uint8)  # indexed by the 1-based tests; entry 0 unused
        negative[1:] = np.logical_not(positive)
        # the trailing 0 lets reduceat start a segment at the entry count, where
        # the empty columns at the end of the view start
        hits = np.empty(col_flat.size + 1, dtype=np.uint8)
        hits[-1] = 0
        # every index is in range; mode="raise" would gather into a buffer
        # and copy it to ``out``, "wrap" writes into ``out`` directly
        np.take(negative, col_flat, out=hits[:-1], mode="wrap")
        starts, ends = col_ptr[:-1], col_ptr[1:]
        flagged = np.bitwise_or.reduceat(hits, starts)
        flagged[starts == ends] = 0  # reduceat reads one entry past an empty column
        return flagged == 0

    def _empty_columns(self) -> int:
        """The number of items in no test; an ncc item draws L >= 1 tests."""
        if self._draws is not None:
            return 0
        col_ptr = self._cols[1]
        return int(np.count_nonzero(col_ptr[1:] == col_ptr[:-1]))

    # -- access -------------------------------------------------------------

    def row(self, t: int) -> np.ndarray:
        """Sorted item indices included in test t (1-based)."""
        t = require_count("test", t, high=self.T)
        return self.row_flat[self.row_ptr[t - 1] : self.row_ptr[t]]

    def col(self, i: int) -> np.ndarray:
        """Sorted test indices containing item i (1-based)."""
        i = require_count("item", i, high=self.n)
        return self.col_flat[self.col_ptr[i - 1] : self.col_ptr[i]]

    def cols_of(self, items) -> np.ndarray:
        """The columns of the given items, read by model._items on 1..n,
        concatenated: col(i) for each i in turn."""
        return self._columns(_items(items, self.n))[0]

    @property
    def entry_count(self) -> int:
        """The number of (test, item) inclusions: each item's distinct draws
        for a design holding draws, counted on them sorted line by line."""
        if self._draws is None:
            return int(self._cols[0].size)
        line_sorted = np.sort(self._draws, axis=1)
        repeats = np.count_nonzero(line_sorted[:, 1:] == line_sorted[:, :-1])
        return int(line_sorted.size - repeats)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TestDesign):
            return NotImplemented
        return (
            self.n == other.n
            and self.T == other.T
            and np.array_equal(self.col_flat, other.col_flat)
            and np.array_equal(self.col_ptr, other.col_ptr)
        )

    def __hash__(self):
        return hash((self.n, self.T, self.entry_count))

    def __repr__(self):
        kind = self.metadata.get("kind", "explicit")
        return f"TestDesign(T={self.T}, n={self.n}, entries={self.entry_count}, kind={kind})"


def _key_layout(n: int, T: int):
    """(bt, bn, dtype): the bit widths of the test and item fields, and the
    dtype of the packed keys.

    An (item, test) pair packs into (i - 1) << bt | (t - 1) for the column
    view and into (t - 1) << bn | (i - 1) for the row view. Both fit int32
    when bt + bn <= 31; int32 keys halve the memory the sorts move. The
    dtype is also the one ``row_flat`` and ``col_flat`` are stored in; an
    ncc design's draws are int32 whatever the key width.
    """
    bt, bn = (T - 1).bit_length(), (n - 1).bit_length()
    return bt, bn, (np.int32 if bt + bn <= 31 else np.int64)


def _row_view(n: int, T: int, col_flat: np.ndarray, col_ptr: np.ndarray) -> tuple:
    """(row_flat, row_ptr) of the design whose column view is given: the
    column view of the transpose, packed by _col_view_of with n and T
    swapped, in the flats' dtype, since _key_layout is symmetric in (n, T)."""
    dtype = _key_layout(n, T)[2]
    item = np.repeat(np.arange(n, dtype=dtype), np.diff(col_ptr))  # each entry's item - 1
    return _col_view_of(T, n, np.subtract(col_flat, 1, dtype=dtype), item)


def _col_view(design: TestDesign) -> tuple:
    """(col_flat, col_ptr) of a design that holds draws: the columns of all
    its items by ``_columns``, whose owners are then the items - 1."""
    tests, owner = design._columns(np.arange(1, design.n + 1))
    return tests, _pointers(owner, design.n)


def _col_view_of(n: int, T: int, item: np.ndarray, test: np.ndarray) -> tuple:
    """(col_flat, col_ptr) of the distinct (item, test) pairs given as
    0-based index arrays in the key dtype of _key_layout.

    It packs the item-major keys item << bt | test into ``item``, sorts them
    into the column view's order and unpacks them. ``col_flat`` keeps the
    key dtype: it comes from a mask of the keys, so no widened copy of the
    entries is made.
    """
    bt, _, _ = _key_layout(n, T)
    item <<= bt
    item |= test
    item.sort()
    col_flat = item & ((1 << bt) - 1)
    item >>= bt
    col_ptr = _pointers(item, n)
    col_flat += 1
    return col_flat, col_ptr


def _rows_design(n: int, rows: list, metadata, label: str, start: int, error=ParameterError) -> TestDesign:
    """The design on 1..n whose tests are the rows, each read by
    model._increasing; a refused row raises ``error`` naming it:
    "test 2: need 1 <= item <= 5, got 6"."""
    read = []
    for t, row in enumerate(rows, start):
        try:
            read.append(_increasing(row, n, "items"))
        except ParameterError as err:
            raise error(f"{label} {t}: {err}") from None
    T = len(read)
    dtype = _key_layout(n, T)[2]
    test = np.repeat(np.arange(T, dtype=dtype), [row.size for row in read])  # 0-based
    items = np.concatenate(read)
    return TestDesign(n, T, *_col_view_of(n, T, (items - 1).astype(dtype), test), metadata)


def _pointers(label: np.ndarray, size: int) -> np.ndarray:
    """CSR pointers of sorted 0-based labels below size: ptr[j] counts the
    labels below j, as int64.

    One change-point pass, linear in the labels and never copying them (as
    np.bincount would, to intp): the pointer takes each run's end from just
    after the run's label up to the next run's label, so labels without a
    run repeat the previous end.
    """
    end = np.empty(label.size, dtype=bool)
    np.not_equal(label[1:], label[:-1], out=end[:-1])
    end[-1:] = True
    last = end.nonzero()[0]  # the last entry of every run
    ends = np.zeros(last.size + 1, dtype=np.int64)
    np.add(last, 1, out=ends[1:])
    if last.size == size:  # every label has a run, so no pointer repeats
        return ends
    bounds = np.empty(last.size + 2, dtype=np.intp)  # -1, the run labels, size
    bounds[0], bounds[-1] = -1, size
    bounds[1:-1] = label[last]
    return ends.repeat(np.subtract(bounds[1:], bounds[:-1]))


# ---------------------------------------------------------------------------
# random constructions


def bernoulli_design(n: int, T: int, p: float, seed) -> TestDesign:
    """Each of the T x n entries is included independently with probability p.

    The cells of the grid are numbered test-major, c = (t - 1) n + (i - 1),
    and the gaps between consecutive included cells are i.i.d. Geometric(p),
    which is exactly the i.i.d. Bernoulli(p) entry law. Their running sum,
    cut at T n, gives the included cells in one vectorised draw whose memory
    is proportional to the entry count, never to T n.

    The gaps are consumed in order, so the draw does not depend on how many
    are taken at a time: bernoulli_design(n, T', p, seed) is exactly the
    first T' rows of bernoulli_design(n, T, p, seed) for T' <= T. A Generator
    passed as ``seed`` is advanced past the gaps drawn, an amount that
    depends on (n, T, p).
    """
    n, T, p = require_count("n", n), require_count("T", T), require_real("p", p, 1)
    rng = np.random.default_rng(seed)
    cells = T * n
    # about six standard deviations above the mean entry count, so one chunk
    # nearly always reaches past the last cell
    mean = cells * p
    chunk = int(mean + 6.0 * math.sqrt(mean) + 16.0)
    parts, last = [], -1  # last: the highest cell drawn so far
    while last < cells:
        part = rng.geometric(p, size=chunk)
        # one gap past the grid ends it, whatever its length; the cap keeps
        # the running sum from wrapping around int64 when p is tiny
        np.minimum(part, cells + 1, out=part)
        np.cumsum(part, out=part)
        part += last
        parts.append(part)
        last = int(part[-1])
    drawn = np.concatenate(parts) if len(parts) > 1 else parts[0]
    dtype = _key_layout(n, T)[2]
    # every cell below T n fits the key dtype, since T n <= 2**(bt + bn)
    item = drawn[: np.searchsorted(drawn, cells)].astype(dtype)
    test = item // dtype(n)  # with the subtraction, about half the time of np.divmod
    item -= test * dtype(n)
    return TestDesign(n, T, *_col_view_of(n, T, item, test), {"kind": "bernoulli", "p": p})


def ncc_design(n: int, T: int, L: int, seed) -> TestDesign:
    """Near-constant column weight: each item draws L tests with replacement.

    The design holds the draws themselves, an (n, L) int32 matrix of 0-based
    tests (int64 only when T exceeds 2**31), and builds its column view from
    them on first read (see TestDesign). Duplicate draws collapse there, so realized column weights
    sit in [1, L]; the raw draw count L is recorded in metadata for
    reporting.
    """
    n, T = require_count("n", n), require_count("T", T)
    L = require_count("L", L, high=T)
    rng = np.random.default_rng(seed)
    # for tests below 2**31, numpy's int32 and int64 draws give the same
    # values and leave the Generator in the same state
    dtype = np.int32 if T <= 1 << 31 else np.int64
    draws = rng.integers(0, T, size=(n, L), dtype=dtype)
    return TestDesign._from_draws(n, T, draws, {"kind": "ncc", "L": L})


@dataclass(frozen=True)
class DesignSpec:
    """Recipe for building a design at given (n, T, k).

    kind "bernoulli": inclusion probability nu / k, or p_override directly.
    kind "ncc":       L = round(nu * T / k) draws per item (ties round up),
                      or L_override directly.
    kind "explicit":  load the design from ``path``.
    """

    kind: str
    nu: float = LN2
    p_override: float | None = None
    L_override: int | None = None
    path: str | None = None

    def __post_init__(self):
        require_choice("design", self.kind, ("bernoulli", "ncc", "explicit"))
        if self.kind == "explicit" and not self.path:
            raise ParameterError("explicit design spec needs a path")
        require_real("nu", self.nu)
        if self.p_override is not None and self.kind != "bernoulli":
            raise ParameterError("p_override only applies to bernoulli designs")
        if self.p_override is not None:
            require_real("p_override", self.p_override, 1)
        if self.L_override is not None and self.kind != "ncc":
            raise ParameterError("L_override only applies to ncc designs")
        if self.L_override is not None:
            require_count("L_override", self.L_override)

    def label(self) -> str:
        if self.kind == "explicit":
            return f"file:{self.path}"
        return self.kind


def _density(spec: DesignSpec, T: int, k: int):
    """The inclusion probability p of a bernoulli spec, or the draw count L
    of an ncc spec, at T tests and k defectives, read by the rule its builder
    applies (0 < p < 1, 1 <= L <= T). Else ParameterError."""
    if require_count("k", k, low=None) < 1:
        raise ParameterError(f"{spec.kind} design needs k >= 1 to set its density, got {k}")
    if spec.kind == "bernoulli":
        return require_real("p", spec.p_override if spec.p_override is not None else spec.nu / k, 1)
    L = spec.L_override if spec.L_override is not None else round_half_up(spec.nu * T / k)
    return require_count("L", L, high=require_count("T", T))


def build_design(spec: DesignSpec, n: int, T: int, k: int, seed) -> TestDesign:
    """Instantiate a DesignSpec. k sets the density for the random kinds."""
    if spec.kind == "bernoulli":
        return bernoulli_design(n, T, _density(spec, T, k), seed)
    if spec.kind == "ncc":
        return ncc_design(n, T, _density(spec, T, k), seed)
    design = load_design(spec.path)
    if design.n != n or design.T != T:
        raise ParameterError(
            f"explicit design is {design.T} x {design.n}, experiment wants {T} x {n}"
        )
    return design


# ---------------------------------------------------------------------------
# file I/O


def save_design(design: TestDesign, path) -> None:
    """Write a design in the line-per-test text format."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{design.T} {design.n}\n")
        for t in range(1, design.T + 1):
            fh.write(" ".join(str(int(i)) for i in design.row(t)))
            fh.write("\n")


def load_design(path) -> TestDesign:
    """Read a design file, rejecting malformed input with the line number."""
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DesignFormatError("line 1: empty file, expected 'T n' header")
    header = lines[0].split()
    if len(header) != 2:
        raise DesignFormatError("line 1: expected header 'T n'")
    try:
        T, n = int(header[0]), int(header[1])
    except ValueError:
        raise DesignFormatError("line 1: header fields must be integers") from None
    if T < 1 or n < 1:
        raise DesignFormatError(f"line 1: T and n must be positive, got T={T}, n={n}")
    if len(lines) - 1 != T:
        raise DesignFormatError(
            f"line {len(lines)}: expected {T} test lines after the header, found {len(lines) - 1}"
        )
    rows = [[_file_int(tok, line_no) for tok in line.split()] for line_no, line in enumerate(lines[1:], 2)]
    return _rows_design(n, rows, {"kind": "explicit"}, "line", 2, DesignFormatError)


def _file_int(tok: str, line_no: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise DesignFormatError(f"line {line_no}: {tok!r} is not an integer") from None
