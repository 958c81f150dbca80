"""Network document loading (JSON) and the bundled 33-bus dataset."""

from __future__ import annotations

import json
from importlib import resources

from ..errors import NetworkParseError, NetworkValidationError, RadialityError
from .types import CLOSED, OPEN, Bus, Der, Line, NetworkState, TieSwitch
from . import topology

DEFAULT_DISPATCH = 0.7  # pre-attack DER setpoint; "boost" defenses raise it to 1.0


def load_network(path) -> NetworkState:
    """Parse the network description document at ``path`` into a NetworkState.

    All lines start closed, all tie switches open, all DERs online at the
    default dispatch, shed fractions zero. The base (all-switches-open)
    topology must be a forest; anything else is rejected.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise NetworkParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise NetworkParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return _build_state(doc, str(path))


def load_ieee33() -> NetworkState:
    """The bundled enhanced 33-bus feeder (4 DERs, 4 critical loads, 4 ties)."""
    with resources.files("gridgame.data").joinpath("ieee33.json").open() as fh:
        return _build_state(json.load(fh), "ieee33.json")


def _req(mapping, key, where):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise NetworkParseError(f"{where}: missing required key {key!r}") from None


def _num(mapping, key, where, default=None, cast=float):
    """``mapping[key]`` as a number; required when there is no default."""
    value = _req(mapping, key, where) if default is None else mapping.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):  # int() of an infinity overflows
        raise NetworkParseError(f"{where}: {key!r} must be a number, got {value!r}") from None


def _objects(doc, key, where, required=False) -> list:
    entries = _req(doc, key, where) if required else doc.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise NetworkParseError(f"{where}: {key!r} must be a list of objects")
    return entries


def _build_state(doc, where: str) -> NetworkState:
    if not isinstance(doc, dict):
        raise NetworkParseError(f"{where}: top level must be an object, got {type(doc).__name__}")
    critical = doc.get("critical_buses", [])
    if not isinstance(critical, list):
        raise NetworkParseError(f"{where}: 'critical_buses' must be a list of bus ids")

    buses = []
    for i, entry in enumerate(_objects(doc, "buses", where, required=True)):
        at = f"{where} buses[{i}]"
        buses.append(Bus(
            id=_num(entry, "id", at, cast=int),
            load_p=_num(entry, "p_kw", at, 0.0),
            load_q=_num(entry, "q_kvar", at, 0.0),
            is_critical=_req(entry, "id", at) in critical,
        ))
    ids = sorted(b.id for b in buses)
    if ids != list(range(1, len(ids) + 1)):
        raise NetworkValidationError(f"{where}: bus ids must be dense 1..N, got {ids[:5]}...")

    lines = tuple(
        Line(
            id=str(entry.get("id", f"L{_req(entry, 'from', where)}-{_req(entry, 'to', where)}")),
            from_bus=_num(entry, "from", f"{where} lines[{i}]", cast=int),
            to_bus=_num(entry, "to", f"{where} lines[{i}]", cast=int),
            r=_num(entry, "r_ohm", f"{where} lines[{i}]"),
            x=_num(entry, "x_ohm", f"{where} lines[{i}]"),
            status=CLOSED,
        )
        for i, entry in enumerate(_objects(doc, "lines", where, required=True))
    )
    switches = tuple(
        TieSwitch(
            id=str(_req(entry, "id", f"{where} switches[{i}]")),
            from_bus=_num(entry, "from", f"{where} switches[{i}]", cast=int),
            to_bus=_num(entry, "to", f"{where} switches[{i}]", cast=int),
            r=_num(entry, "r_ohm", f"{where} switches[{i}]", 0.5),
            x=_num(entry, "x_ohm", f"{where} switches[{i}]", 0.5),
            position=OPEN,
        )
        for i, entry in enumerate(_objects(doc, "switches", where))
    )
    ders = tuple(
        Der(
            id=str(entry.get("id", f"DER{i + 1}")),
            bus=_num(entry, "bus", f"{where} ders[{i}]", cast=int),
            rating_p=_num(entry, "rating_kw", f"{where} ders[{i}]"),
            dispatch_fraction=_num(entry, "dispatch_fraction", f"{where} ders[{i}]",
                                   DEFAULT_DISPATCH),
            online=True,
        )
        for i, entry in enumerate(_objects(doc, "ders", where))
    )
    state = NetworkState(
        buses=tuple(buses),
        lines=lines,
        switches=switches,
        ders=ders,
        base_kv=_num(doc, "base_kv", where, 12.66),
        base_mva=_num(doc, "base_mva", where, 10.0),
        slack_bus=_num(doc, "slack_bus", where, 1, int),
    )
    for isl in topology.islands(state):
        try:
            isl.check_radial()
        except RadialityError:
            raise NetworkValidationError(f"{where}: base topology is not radial") from None
    return state
