"""Network document loading (JSON) and the bundled 33-bus dataset."""

from __future__ import annotations

import os

from ..errors import (NetworkParseError, NetworkValidationError, RadialityError, number,
                      read_json)
from .types import Bus, Der, Line, NetworkState, TieSwitch
from . import topology

DEFAULT_DISPATCH = 0.7  # pre-attack DER setpoint; "boost" defenses raise it to 1.0


def load_network(path) -> NetworkState:
    """Parse the network description document at ``path`` into a NetworkState.

    All lines start closed, all tie switches open, all DERs online at the
    default dispatch, shed fractions zero. The base (all-switches-open)
    topology must be a forest. Every error names the file.
    """
    return _build_state(read_json(path, NetworkParseError), str(path))


def load_ieee33() -> NetworkState:
    """The bundled enhanced 33-bus feeder (4 DERs, 4 critical loads, 4 ties)."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "data", "ieee33.json")
    return _build_state(read_json(path, NetworkParseError), "ieee33.json")


def _req(mapping, key, where):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise NetworkParseError(f"{where}: missing required key {key!r}") from None


def _num(mapping, key, where, default=None, whole=False):
    """``mapping[key]`` read by ``number``; required when there is no default."""
    value = _req(mapping, key, where) if default is None else mapping.get(key, default)
    return number(value, f"{where}: {key!r}", NetworkParseError, whole)


def _id(entry, where, default=None) -> str:
    value = _req(entry, "id", where) if default is None else entry.get("id", default)
    if not isinstance(value, str):
        raise NetworkParseError(f"{where}: 'id' {value!r} is not a string")
    return value


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
    critical = {number(c, f"{where}: 'critical_buses' entry", NetworkParseError, whole=True)
                for c in critical}

    buses = []
    for i, entry in enumerate(_objects(doc, "buses", where, required=True)):
        at = f"{where} buses[{i}]"
        bus_id = _num(entry, "id", at, whole=True)
        buses.append(Bus(id=bus_id, load_p=_num(entry, "p_kw", at, 0.0),
                         load_q=_num(entry, "q_kvar", at, 0.0), is_critical=bus_id in critical))
    ids = sorted(b.id for b in buses)
    if ids != list(range(1, len(ids) + 1)):
        raise NetworkValidationError(f"{where}: bus ids must be dense 1..N, got {ids[:5]}...")
    if not critical <= set(ids):
        raise NetworkValidationError(f"{where}: 'critical_buses' names no bus of the network: "
                                     f"{sorted(critical - set(ids))}")

    lines, switches, ders = [], [], []
    for i, entry in enumerate(_objects(doc, "lines", where, required=True)):
        at = f"{where} lines[{i}]"
        a, b = _num(entry, "from", at, whole=True), _num(entry, "to", at, whole=True)
        lines.append(Line(id=_id(entry, at, f"L{a}-{b}"), from_bus=a, to_bus=b,
                          r=_num(entry, "r_ohm", at), x=_num(entry, "x_ohm", at)))
    for i, entry in enumerate(_objects(doc, "switches", where)):
        at = f"{where} switches[{i}]"
        switches.append(TieSwitch(
            id=_id(entry, at), from_bus=_num(entry, "from", at, whole=True),
            to_bus=_num(entry, "to", at, whole=True), r=_num(entry, "r_ohm", at, 0.5),
            x=_num(entry, "x_ohm", at, 0.5)))
    for i, entry in enumerate(_objects(doc, "ders", where)):
        at = f"{where} ders[{i}]"
        ders.append(Der(id=_id(entry, at, f"DER{i + 1}"),
                        bus=_num(entry, "bus", at, whole=True),
                        rating_p=_num(entry, "rating_kw", at),
                        dispatch_fraction=_num(entry, "dispatch_fraction", at, DEFAULT_DISPATCH)))
    try:
        state = NetworkState(
            buses=tuple(buses), lines=tuple(lines), switches=tuple(switches), ders=tuple(ders),
            base_kv=_num(doc, "base_kv", where, 12.66),
            base_mva=_num(doc, "base_mva", where, 10.0),
            slack_bus=_num(doc, "slack_bus", where, 1, whole=True))
        for isl in topology.islands(state):
            isl.check_radial()
    except RadialityError:
        raise NetworkValidationError(f"{where}: base topology is not radial") from None
    except NetworkValidationError as exc:
        raise NetworkValidationError(f"{where}: {exc}") from None
    return state
