"""The one input policy, from Python, JSON, text files and argv alike: an
integer is a Python or numpy integer inside int64 and a real a Python or
numpy real, so a bool or a string is neither and a float is refused as an
integer, never rounded; a law key is a tuple of two integers; a probability
is a real in [0, 1] within `PROB_TOL` (not NaN), and a law sums to 1 within
it; an integer written as text (a file field, an argv word) is an optional
'-' followed by ASCII digits. A count that passes these checks but sizes an
array beyond the address space is a CapacityError (`check_addressable`).
An array of counts is stored in the narrowest signed integer dtype that
holds its largest entry (`narrow_dtype`)."""

from __future__ import annotations

import json
import math
import numbers
import re

import numpy as np

from .errors import CapacityError, ValidationError

PROB_TOL = 1e-12
INT64 = np.iinfo(np.int64)
SUM_BLOCK = 1 << 12  # entries per numpy sum in `exact_total`
# An int64 has at most 19 digits after its leading zeros, so a longer
# string is refused before int() parses it.
INT_TEXT = re.compile(r"-?0*[0-9]{1,19}")


def check_int(value, name: str) -> int:
    """`value` as a Python int, after checking that it is an integer inside
    int64."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and INT64.min <= value <= INT64.max):
        raise ValidationError(f"{name} must be an integer inside int64, got {value!r}")
    return int(value)


def check_real(value, name: str):
    """`value`, unconverted, after checking that it is a real number. NaN and
    the infinities pass; the caller's range test refuses them."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    return value


def check_int_pair(pair, names: tuple[str, str]) -> tuple[int, int]:
    """A law key `pair` as two Python ints, after checking that it is a
    tuple of exactly two integers; `names` names its entries in errors."""
    if not isinstance(pair, tuple) or len(pair) != 2:
        raise ValidationError(f"key must be a pair ({names[0]}, {names[1]}), got {pair!r}")
    return check_int(pair[0], names[0]), check_int(pair[1], names[1])


def check_int_array(values, name: str) -> np.ndarray:
    """`np.asarray(values)`, unconverted, after checking each entry by
    `check_int`. A numpy array of an integer dtype other than uint64 passes
    as it is; anything else is checked entry by entry, since numpy reads
    (True, 2) as integers."""
    arr = np.asarray(values)
    if not isinstance(values, np.ndarray) or arr.dtype.kind not in "iu" or arr.dtype == np.uint64:
        for x in np.asarray(values, dtype=object).reshape(-1).tolist():
            check_int(x, name)
    return arr


def exact_total(values: np.ndarray) -> int:
    """The sum of a non-negative integer array as a Python int, never
    wrapped: numpy's int64 sums when no total of its entries can pass int64
    (the largest entry times the length), else Python's. Numpy sums
    SUM_BLOCK entries at a time, so the widening of a narrow array buffers
    one block (32 KB), not numpy's default of 8192 entries."""
    if len(values) and int(values.max()) * len(values) > INT64.max:
        return sum(values.tolist())
    return sum(int(values[lo : lo + SUM_BLOCK].sum()) for lo in range(0, len(values), SUM_BLOCK))


def narrow_dtype(values: np.ndarray) -> np.dtype:
    """The narrowest signed integer dtype that holds every entry of the
    non-negative int64-bounded integer array `values`. Signed only: the
    cumulative sum of an unsigned array is uint64, which numpy mixes with
    int64 as float64."""
    top = int(values.max(initial=0))
    return next(
        np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64) if top <= np.iinfo(t).max
    )


def check_addressable(count: int, itemsize: int, name: str) -> None:
    """Raise CapacityError when an array of `count` items of `itemsize`
    bytes would exceed the address space, which numpy refuses with a
    ValueError ("array is too big"), not a MemoryError."""
    if count * itemsize > np.iinfo(np.intp).max:
        raise CapacityError(
            f"{name}={count}: an array of {itemsize}-byte items exceeds the address space"
        )


def read_int(text: str, name: str) -> int:
    """The integer that `text` spells, by `check_int`, after checking that
    it is an optional '-' followed by ASCII digits; the one reader of
    integer text."""
    return check_int(int(text) if INT_TEXT.fullmatch(text) else text, name)


def check_pmf(items, what: str) -> dict:
    """The pmf {key: float} of the (key, probability) `items`, in first-seen
    key order: each probability checked, those of one key summed in order,
    keys without positive mass dropped. `what` names the law in errors."""
    masses: dict = {}
    for key, p in items:
        p = check_real(p, f"probability of {key}")
        if not -PROB_TOL <= p <= 1 + PROB_TOL:
            raise ValidationError(f"probability of {key} must be in [0, 1], got {p!r}")
        masses[key] = masses.get(key, 0.0) + float(p)
    masses = {key: p for key, p in masses.items() if p > 0.0}
    if not masses:
        raise ValidationError(f"empty {what}")
    total = math.fsum(masses.values())
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"{what} sums to {total}, not 1")
    return masses


def read_pmf(text: str, keys: tuple[str, str], what: str) -> dict:
    """The pmf, by `check_pmf`, of a law's JSON `{"pmf": [{keys[0]: k,
    keys[1]: l, "p": w}, ...]}`; entries of one pair (k, l) sum in file order."""
    data = json.loads(text)
    if not isinstance(data, dict) or not isinstance(data.get("pmf"), list):
        raise ValidationError(f'{what} JSON must be {{"pmf": [...]}}')
    items = []
    for entry in data["pmf"]:
        try:
            items.append((tuple(check_int(entry[k], k) for k in keys), entry["p"]))
        except (KeyError, TypeError, ValidationError) as exc:
            raise ValidationError(f"bad pmf entry {entry!r}: {exc}") from exc
    return check_pmf(items, what)


def read_int_rows(path, layout: str, header: str) -> tuple[int | None, list[tuple]]:
    """The rows of the ASCII file `path`, each the integer fields that `layout`
    names (as 'src dst mult'), and the n of a first line `<header><n>` (None
    without one), each read by `read_int`. Blank lines are skipped; any
    other line is a ValidationError naming `path:line`."""
    value, rows, width = None, [], len(layout.split())
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if lineno == 1 and line.startswith("#"):
                value = read_int(line.removeprefix(header), f"{path}:1: n of '{header}<n>'")
                continue
            fields = line.split()
            if len(fields) != width:
                raise ValidationError(f"{path}:{lineno}: expected integers '{layout}'")
            rows.append(tuple(read_int(f, f"{path}:{lineno}: field") for f in fields))
    return value, rows
