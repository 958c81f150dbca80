"""Network document loading (JSON) and the bundled 33-bus dataset."""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from ..errors import NetworkParseError, NetworkValidationError
from .types import CLOSED, OPEN, Bus, Der, Line, NetworkState, TieSwitch
from . import topology

DEFAULT_DISPATCH = 0.7  # pre-attack DER setpoint; "boost" defenses raise it to 1.0


def load_network(source) -> NetworkState:
    """Parse a network description document into a NetworkState.

    ``source`` is a path or an already-parsed mapping. All lines start
    closed, all tie switches open, all DERs online at the default dispatch,
    shed fractions zero. The base (all-switches-open) topology must be a
    forest; anything else is rejected.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise NetworkParseError(f"{source}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise NetworkParseError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        where = str(source)
    else:
        doc = source
        where = "<document>"
    return _build_state(doc, where)


def load_ieee33() -> NetworkState:
    """The bundled enhanced 33-bus feeder (4 DERs, 4 critical loads, 4 ties)."""
    with resources.files("gridgame.data").joinpath("ieee33.json").open() as fh:
        return _build_state(json.load(fh), "ieee33.json")


def _req(mapping, key, where):
    try:
        return mapping[key]
    except (KeyError, TypeError):
        raise NetworkParseError(f"{where}: missing required key {key!r}") from None


def _build_state(doc, where: str) -> NetworkState:
    critical = set(doc.get("critical_buses", ()))

    buses = []
    for i, entry in enumerate(_req(doc, "buses", where)):
        bus_id = _req(entry, "id", f"{where} buses[{i}]")
        buses.append(Bus(
            id=int(bus_id),
            load_p=float(entry.get("p_kw", 0.0)),
            load_q=float(entry.get("q_kvar", 0.0)),
            is_critical=bus_id in critical,
        ))
    ids = sorted(b.id for b in buses)
    if ids != list(range(1, len(ids) + 1)):
        raise NetworkValidationError(f"{where}: bus ids must be dense 1..N, got {ids[:5]}...")

    lines = tuple(
        Line(
            id=str(entry.get("id", f"L{_req(entry, 'from', where)}-{_req(entry, 'to', where)}")),
            from_bus=int(_req(entry, "from", f"{where} lines[{i}]")),
            to_bus=int(_req(entry, "to", f"{where} lines[{i}]")),
            r=float(_req(entry, "r_ohm", f"{where} lines[{i}]")),
            x=float(_req(entry, "x_ohm", f"{where} lines[{i}]")),
            status=CLOSED,
        )
        for i, entry in enumerate(_req(doc, "lines", where))
    )
    switches = tuple(
        TieSwitch(
            id=str(_req(entry, "id", f"{where} switches[{i}]")),
            from_bus=int(_req(entry, "from", f"{where} switches[{i}]")),
            to_bus=int(_req(entry, "to", f"{where} switches[{i}]")),
            r=float(entry.get("r_ohm", 0.5)),
            x=float(entry.get("x_ohm", 0.5)),
            position=OPEN,
        )
        for i, entry in enumerate(doc.get("switches", ()))
    )
    ders = tuple(
        Der(
            id=str(entry.get("id", f"DER{i + 1}")),
            bus=int(_req(entry, "bus", f"{where} ders[{i}]")),
            rating_p=float(_req(entry, "rating_kw", f"{where} ders[{i}]")),
            dispatch_fraction=float(entry.get("dispatch_fraction", DEFAULT_DISPATCH)),
            online=True,
        )
        for i, entry in enumerate(doc.get("ders", ()))
    )
    state = NetworkState(
        buses=tuple(buses),
        lines=lines,
        switches=switches,
        ders=ders,
        base_kv=float(doc.get("base_kv", 12.66)),
        base_mva=float(doc.get("base_mva", 10.0)),
        slack_bus=int(doc.get("slack_bus", 1)),
    )
    for comp in topology.islands(state):
        edges = sum(
            1 for f, t, *_ in state.closed_branches() if f in comp and t in comp
        )
        if edges != len(comp) - 1:
            raise NetworkValidationError(f"{where}: base topology is not radial")
    return state
