"""Small helpers used throughout the package: the input readers, tolerant
rounding, seed mixing, and ``write_csv``, the one writer of every CSV table."""

from __future__ import annotations

import csv
import math
import numbers
import operator

from .errors import ParameterError

LN2 = math.log(2.0)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: tolerance for snapping float products like eta*k to integers before rounding
_SNAP = 1e-9


def require_real(name: str, value, high=None, *, low_closed=False, high_closed=False) -> float:
    """``value`` as a float when it is a finite real number between 0 and
    ``high`` (None: no upper end), each end left out unless ``low_closed``
    or ``high_closed`` takes it in. Else ParameterError, a NaN, an infinity,
    None or a quoted string included, in the form of require_count: "need 0
    < {name} < {high}, got {value}", or "need {name} > 0, ..." with no high,
    ``<=`` and ``>=`` marking a closed end."""
    try:
        x = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an int beyond every float
        x = math.nan
    # NaN fails both comparisons, and an infinity the one at its end
    below_high = x < math.inf if high is None else (x <= high if high_closed else x < high)
    if (0 <= x if low_closed else 0 < x) and below_high:
        return x
    value = repr(value) if isinstance(value, str) else value
    if high is None:
        bound = f"{name} {'>=' if low_closed else '>'} 0"
    else:
        bound = f"0 {'<=' if low_closed else '<'} {name} {'<=' if high_closed else '<'} {high}"
    raise ParameterError(f"need {bound}, got {value}")


def require_count(name: str, value, low: int | None = 1, high: int | None = None) -> int:
    """``value`` as an int when it is a whole number in [low, high], where a
    None bound leaves that side open (``low=None`` reads a seed, of any sign).
    Else ParameterError, a float, None or a quoted string included: "need
    {low} <= {name} <= {high}, got {value}", or "need {name} >= {low}, ..." with no high."""
    try:
        count = operator.index(value)
        if (low is None or count >= low) and (high is None or count <= high):
            return count
    except TypeError:
        value = repr(value) if isinstance(value, str) else value
    if low is None:
        raise ParameterError(f"need a whole number {name}, got {value}")
    bound = f"{name} >= {low}" if high is None else f"{low} <= {name} <= {high}"
    raise ParameterError(f"need {bound}, got {value}")


def require_choice(name: str, value, choices) -> str:
    """``value`` when it is one of the strings ``choices``; else
    ParameterError in the form of require_count: "need {name} in {a, b},
    got {value}", a string value quoted."""
    if isinstance(value, str) and value in choices:
        return value
    value = repr(value) if isinstance(value, str) else value
    raise ParameterError(f"need {name} in {{{', '.join(choices)}}}, got {value}")


def round_half_up(x: float) -> int:
    """Round to nearest integer, ties away from zero (upward for x >= 0)."""
    return int(math.floor(x + 0.5))


def _snap_int(x: float) -> float:
    r = round(x)
    return float(r) if abs(x - r) < _SNAP * max(1.0, abs(x)) else x


def floor_tol(x: float) -> int:
    """floor(x) after snapping values within 1e-9 of an integer.

    Products like (1 - eta) * k routinely land one ulp off an integer; a raw
    floor would then be off by one.
    """
    return int(math.floor(_snap_int(x)))


def ceil_tol(x: float) -> int:
    """ceil(x) with the same integer snapping as floor_tol."""
    return int(math.ceil(_snap_int(x)))


def write_csv(path, header, rows) -> None:
    """Write ``header``, then each of ``rows``, to ``path`` in the package's
    one CSV dialect: "\\n" line ends and minimal quoting, a None cell empty."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def splitmix64(z: int) -> int:
    """One step of the splitmix64 mixing function (public-domain constants)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix_seed(*parts: int) -> int:
    """Mix integers into a 64-bit seed by chained splitmix64 steps.

    Deterministic across platforms and Python versions; used to derive
    per-trial and per-stream seeds from a master seed.
    """
    state = 0
    for p in parts:
        state = splitmix64((state ^ (p & _MASK64)) & _MASK64)
    return state

