"""The one input policy of every law, count and id: an integer is a Python
or numpy integer, so a float or a bool is refused, never rounded, from Python
and from JSON alike; a probability is a real number in [0, 1] within
`PROB_TOL` (not NaN, a bool or a string), and a law sums to 1 within it."""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .errors import ValidationError

PROB_TOL = 1e-12


def check_int(value, name: str) -> int:
    """`value` as a Python int, after checking that it is an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_int_array(values, name: str) -> np.ndarray:
    """`np.asarray(values)`, unconverted, after checking that every entry is
    an integer. An integer numpy array passes as it is; anything else is
    checked entry by entry, since numpy reads (True, 2) as integers."""
    arr = np.asarray(values)
    if not (isinstance(values, np.ndarray) and arr.dtype.kind in "iu"):
        for x in np.asarray(values, dtype=object).reshape(-1).tolist():
            if isinstance(x, bool) or not isinstance(x, numbers.Integral):
                raise ValidationError(f"{name} must be integers, got {x!r}")
    return arr


def check_pmf(items, what: str) -> dict:
    """The pmf {key: float} of the (key, probability) `items`, in first-seen
    key order: each probability checked, those of one key summed in order,
    keys without positive mass dropped. `what` names the law in errors."""
    masses: dict = {}
    for key, p in items:
        if (isinstance(p, bool) or not isinstance(p, numbers.Real)
                or not -PROB_TOL <= p <= 1 + PROB_TOL):
            raise ValidationError(f"probability of {key} must be real in [0, 1], got {p!r}")
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
