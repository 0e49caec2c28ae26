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
from .util import LN2, round_half_up


class TestDesign:
    """Sparse T x n binary design with both row and column views.

    The two views describe the same matrix: ``row(t)`` lists the items in
    test t, ``col(i)`` lists the tests containing item i, both sorted,
    both 1-based. The flats ``row_flat`` and ``col_flat`` are stored in the
    packed-key dtype of _key_layout (int32 whenever the keys fit), which
    ``row``, ``col`` and ``cols_of`` return; the pointers ``row_ptr`` and
    ``col_ptr`` are int64.
    """

    __slots__ = (
        "n",
        "T",
        "row_flat",
        "row_ptr",
        "col_flat",
        "col_ptr",
        "metadata",
    )

    def __init__(self, n, T, row_flat, row_ptr, col_flat, col_ptr, metadata=None):
        self.n = int(n)
        self.T = int(T)
        self.row_flat = row_flat
        self.row_ptr = row_ptr
        self.col_flat = col_flat
        self.col_ptr = col_ptr
        self.metadata = dict(metadata or {})

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, n: int, rows, metadata=None) -> "TestDesign":
        """Build from per-test item lists, validating the contents."""
        if n < 1:
            raise ParameterError(f"need n >= 1, got {n}")
        rows = list(rows)
        tests = []
        items = []
        for t, row in enumerate(rows, start=1):
            prev = 0
            for idx in row:
                idx = int(idx)
                if not (1 <= idx <= n):
                    raise ParameterError(f"test {t}: item index {idx} out of range [1, {n}]")
                if idx <= prev:
                    raise ParameterError(f"test {t}: indices must be strictly increasing")
                prev = idx
                tests.append(t)
                items.append(idx)
        T = len(rows)
        if T < 1:
            raise ParameterError("need at least one test")
        return cls._from_pairs(n, T, items, tests, metadata)

    @classmethod
    def _from_pairs(cls, n, T, items, tests, metadata=None) -> "TestDesign":
        """Build from parallel (item, test) index arrays; no duplicate pairs."""
        bt, _, dtype = _key_layout(n, T)
        key = np.array(items, dtype=dtype)
        key -= 1
        key <<= bt
        key -= 1  # before the tests are added, so no sum passes the largest key
        key += np.asarray(tests, dtype=dtype)
        key.sort()
        return cls._from_col_keys(n, T, key, metadata)

    @classmethod
    def _from_col_keys(cls, n, T, key, metadata=None) -> "TestDesign":
        """Build from the sorted, distinct item-major keys (i - 1) << bt | (t - 1).

        Item-major order is the column view; the row view sorts the
        test-major keys (t - 1) << bn | (i - 1). See _key_layout for the
        field widths and the key dtype, which both flats keep: they come
        from in-place shifts and masks, and ``key``'s buffer becomes
        ``row_flat``, so no widened copy of the entries is made.
        """
        bt, bn, _ = _key_layout(n, T)
        col_flat = key & ((1 << bt) - 1)
        key >>= bt
        col_ptr = _pointers(key, n)
        key |= col_flat << bn  # the row keys, built in key's buffer
        col_flat += 1
        key.sort()
        row_ptr = _pointers(key >> bn, T)
        key &= (1 << bn) - 1
        key += 1
        return cls(n, T, key, row_ptr, col_flat, col_ptr, metadata)

    # -- access -------------------------------------------------------------

    def row(self, t: int) -> np.ndarray:
        """Sorted item indices included in test t (1-based)."""
        if not (1 <= t <= self.T):
            raise ParameterError(f"test index {t} out of range [1, {self.T}]")
        return self.row_flat[self.row_ptr[t - 1] : self.row_ptr[t]]

    def col(self, i: int) -> np.ndarray:
        """Sorted test indices containing item i (1-based)."""
        if not (1 <= i <= self.n):
            raise ParameterError(f"item index {i} out of range [1, {self.n}]")
        return self.col_flat[self.col_ptr[i - 1] : self.col_ptr[i]]

    def cols_of(self, items) -> np.ndarray:
        """The columns of the given items concatenated: col(i) for each i in turn."""
        idx = np.asarray(items, dtype=np.int64) - 1
        if idx.size and not (0 <= idx.min() and idx.max() < self.n):
            raise ParameterError(f"item indices must lie in [1, {self.n}]")
        starts = self.col_ptr[idx]
        lens = self.col_ptr[idx + 1] - starts
        # entry j of the output, in segment s, reads col_flat[starts[s] + j - (where s begins)]
        offsets = np.repeat(starts - np.cumsum(lens) + lens, lens)
        return self.col_flat[offsets + np.arange(offsets.size)]

    @property
    def entry_count(self) -> int:
        return int(self.row_flat.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TestDesign):
            return NotImplemented
        return (
            self.n == other.n
            and self.T == other.T
            and np.array_equal(self.row_flat, other.row_flat)
            and np.array_equal(self.row_ptr, other.row_ptr)
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
    dtype is also the one ``row_flat`` and ``col_flat`` are stored in.
    """
    bt, bn = (T - 1).bit_length(), (n - 1).bit_length()
    return bt, bn, (np.int32 if bt + bn <= 31 else np.int64)


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
    if n < 1 or T < 1:
        raise ParameterError(f"need n >= 1 and T >= 1, got n={n}, T={T}")
    if not (0.0 < p < 1.0):
        raise ParameterError(f"p must lie in (0, 1), got {p}")
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
    bt, _, dtype = _key_layout(n, T)
    # every cell below T n fits the key dtype, since T n <= 2**(bt + bn)
    key = drawn[: np.searchsorted(drawn, cells)].astype(dtype)
    test = key // dtype(n)  # with the subtraction, about half the time of np.divmod
    key -= test * dtype(n)
    key <<= bt
    key |= test
    key.sort()
    return TestDesign._from_col_keys(n, T, key, {"kind": "bernoulli", "p": float(p)})


def ncc_design(n: int, T: int, L: int, seed) -> TestDesign:
    """Near-constant column weight: each item draws L tests with replacement.

    Duplicate draws collapse, so realized column weights sit in [1, L]; the
    raw draw count L is recorded in metadata for reporting.
    """
    if n < 1 or T < 1:
        raise ParameterError(f"need n >= 1 and T >= 1, got n={n}, T={T}")
    if not (1 <= L <= T):
        raise ParameterError(f"need 1 <= L <= T, got L={L}, T={T}")
    rng = np.random.default_rng(seed)
    bt, _, dtype = _key_layout(n, T)
    # int64 draws keep numpy's stream; the draw is freed once copied to key dtype
    key = rng.integers(0, T, size=n * L, dtype=np.int64).astype(dtype, copy=False)
    key |= np.repeat(np.arange(n, dtype=dtype) << bt, L)
    key.sort()
    distinct = np.empty(key.size, dtype=bool)
    distinct[0] = True
    np.not_equal(key[1:], key[:-1], out=distinct[1:])
    key = key[distinct]  # rebound so the undeduplicated keys are freed before the build
    return TestDesign._from_col_keys(n, T, key, {"kind": "ncc", "L": int(L)})


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
        if self.kind not in ("bernoulli", "ncc", "explicit"):
            raise ParameterError(f"unknown design kind {self.kind!r}")
        if self.kind == "explicit" and not self.path:
            raise ParameterError("explicit design spec needs a path")
        if self.kind != "explicit" and self.nu <= 0:
            raise ParameterError(f"nu must be positive, got {self.nu}")
        if self.p_override is not None and self.kind != "bernoulli":
            raise ParameterError("p_override only applies to bernoulli designs")
        if self.L_override is not None and self.kind != "ncc":
            raise ParameterError("L_override only applies to ncc designs")

    def label(self) -> str:
        if self.kind == "explicit":
            return f"file:{self.path}"
        return self.kind


def build_design(spec: DesignSpec, n: int, T: int, k: int, seed) -> TestDesign:
    """Instantiate a DesignSpec. k sets the density for the random kinds."""
    if spec.kind != "explicit" and k < 1:
        raise ParameterError(f"{spec.kind} design needs k >= 1 to set its density, got {k}")
    if spec.kind == "bernoulli":
        p = spec.p_override if spec.p_override is not None else spec.nu / k
        return bernoulli_design(n, T, p, seed)
    if spec.kind == "ncc":
        L = spec.L_override if spec.L_override is not None else round_half_up(spec.nu * T / k)
        return ncc_design(n, T, L, seed)
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
    tests = []
    items = []
    for t in range(1, T + 1):
        line_no = t + 1
        raw = lines[t].split()
        prev = 0
        for tok in raw:
            try:
                idx = int(tok)
            except ValueError:
                raise DesignFormatError(f"line {line_no}: {tok!r} is not an integer") from None
            if not (1 <= idx <= n):
                raise DesignFormatError(
                    f"line {line_no}: item index {idx} out of range [1, {n}]"
                )
            if idx == prev:
                raise DesignFormatError(f"line {line_no}: duplicate item index {idx}")
            if idx < prev:
                raise DesignFormatError(f"line {line_no}: indices must be sorted increasing")
            prev = idx
            tests.append(t)
            items.append(idx)
    return TestDesign._from_pairs(n, T, items, tests, {"kind": "explicit"})
