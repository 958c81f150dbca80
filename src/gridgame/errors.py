"""Exception types shared across the package, and the one reader of input
files: ``read_text`` opens each, ``read_json`` parses a JSON one, and
``number`` reads each number in it.  Each raises the error type its caller
passes, with a message that names the file or field."""

import json
import math
import numbers


class GridGameError(Exception):
    """Base class for all errors raised by this package."""


class NetworkParseError(GridGameError):
    """Network document is malformed; message carries the offending location."""


class NetworkValidationError(GridGameError):
    """Network document parsed but violates a structural invariant."""


class RadialityError(GridGameError):
    """An energized island contains a loop, which the sweep solver cannot handle."""


class CatalogError(GridGameError):
    """Attack/defense catalog references a component that does not exist."""


class SolverError(GridGameError):
    """A game solver hit a state it cannot recover from (degenerate LP, bad input)."""


class ConfigError(GridGameError):
    """A run configuration value is out of its documented range."""


def read_text(path, error) -> str:
    """The UTF-8 text of the input file at ``path``, line ends kept."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: {exc}") from exc


def read_json(path, error):
    """The JSON document at ``path``.  NaN and Infinity literals parse;
    ``number`` rejects them at the field that holds them."""
    text = read_text(path, error)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"{path}: not valid JSON ({exc})") from exc


def number(value, what, error, whole=False):
    """``value`` as a float if it is a finite real, not a bool and not an int
    too large for a float, else ``error`` naming ``what``; an id (``whole``)
    must have no fractional part, and comes back as an int."""
    try:
        # int and float first: the abstract-class check is the slow part
        ok = (isinstance(value, (int, float, numbers.Real)) and not isinstance(value, bool)
              and math.isfinite(value) and (not whole or float(value).is_integer()))
    except OverflowError:
        ok = False
    if not ok:
        raise error(f"{what} {value!r} is not a {'whole' if whole else 'finite'} number")
    if not whole:
        return float(value)
    return value if isinstance(value, (int, numbers.Integral)) else int(value)
