"""Catalog semantics, the pair-evaluation pipeline, and compiled pairs.

``pair_oracle`` keeps the dict-based serving policy and the scalar metrics
the package ran before every cell went through ``PairPlan``; it is the
oracle of ``evaluate_pair`` and ``compile_pair``: scorecards and batches of
scores must equal it exactly, not approximately.
"""

import copy
import hashlib
import json
import re
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pair_oracle
from test_netmodel import assert_revalidates, derived_states
from test_powerflow import FEEDERS
from test_topology import expected_reference, multigraph
from gridgame import scenario
from gridgame.errors import CatalogError, RadialityError
from gridgame.experiments import _probe_catalog, synthetic_feeder
from gridgame.netmodel import (
    CLOSED,
    OPEN,
    Bus,
    Line,
    NetworkState,
    islands,
    load_ieee33,
    topology,
)
from gridgame.resilience import DEFAULT_AHP_MATRIX, ahp_weights, unified_score
from gridgame.scenario import (
    AttackAction,
    DefenseAction,
    Effect,
    ScenarioCatalog,
    apply_attack,
    apply_defense,
    catalog_default,
    compile_pair,
    evaluate_pair,
    load_catalog,
)


@pytest.fixture(scope="module")
def net():
    return load_ieee33()


@pytest.fixture(scope="module")
def cat():
    return catalog_default()


NO_ATTACK = AttackAction("A0", "placeholder", ())


class TestCatalogShape:
    def test_sizes(self, cat):
        assert len(cat.attacks) == 10
        assert len(cat.defenses) == 10
        assert [a.id for a in cat.attacks] == [f"A{i}" for i in range(1, 11)]
        assert [d.id for d in cat.defenses] == [f"D{i}" for i in range(1, 11)]

    def test_a3_trips_every_der(self, cat):
        a3 = cat.attack("A3")
        assert all(e.kind == "trip_der" for e in a3.effects)
        assert {e.target for e in a3.effects} == {"DER1", "DER2", "DER3", "DER4"}

    def test_d8_sheds_non_critical(self, cat):
        d8 = cat.defense("D8")
        assert d8.effects == (Effect("shed_fraction", "non-critical", 0.30),)

    def test_d1_is_empty(self, cat):
        assert cat.defense("D1").effects == ()

    def test_every_effect_resolves_on_bundled_network(self, net, cat):
        for a in cat.attacks:
            apply_attack(net, a)
        for d in cat.defenses:
            apply_defense(net, d)

    def test_duplicate_ids_rejected(self, cat):
        with pytest.raises(CatalogError):
            scenario.ScenarioCatalog(
                attacks=cat.attacks, defenses=cat.defenses + (cat.defenses[0],))


class TestApplyAttack:
    def test_a1_trips_ders_at_biased_buses(self, net, cat):
        hit = apply_attack(net, cat.attack("A1"))
        offline = {d.bus for d in hit.ders if not d.online}
        assert offline == {5, 18, 29}
        assert net.der_at_bus(5).online  # input untouched

    def test_a2_opens_named_lines(self, net, cat):
        hit = apply_attack(net, cat.attack("A2"))
        assert not hit.find_line(6, 7).closed
        assert not hit.find_line(14, 15).closed
        untouched = sum(1 for l in hit.lines if not l.closed)
        assert untouched == 2

    def test_a6_is_a_single_line_diff(self, net, cat):
        hit = apply_attack(net, cat.attack("A6"))
        line_diff = [
            (a.id, b.status) for a, b in zip(net.lines, hit.lines) if a.status != b.status
        ]
        assert len(line_diff) == 1
        assert [d.online for d in hit.ders] == [d.online for d in net.ders]

    def test_a4_scales_loads(self, net, cat):
        hit = apply_attack(net, cat.attack("A4"))
        for b in (20, 21, 22, 23, 24):
            assert hit.bus(b).load_p == pytest.approx(1.2 * net.bus(b).load_p)
        assert hit.bus(19).load_p == net.bus(19).load_p

    def test_unresolvable_line_raises(self, net):
        bogus = AttackAction("AX", "bad", (Effect("trip_line", "98-99"),))
        with pytest.raises(CatalogError):
            apply_attack(net, bogus)

    def test_fdi_without_der_raises(self, net):
        bogus = AttackAction("AX", "bad", (Effect("fdi_bias", 10),))
        with pytest.raises(CatalogError):
            apply_attack(net, bogus)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(CatalogError):
            AttackAction("AX", "bad", (Effect("melt_bus", 3),))

    def test_integral_float_bus_ids_resolve_as_ints(self, net):
        as_float = AttackAction("AX", "floats", (
            Effect("scale_load", 20.0, 1.2), Effect("trip_der", 5.0)))
        as_int = AttackAction("AX", "ints", (Effect("scale_load", 20, 1.2), Effect("trip_der", 5)))
        assert apply_attack(net, as_float) == apply_attack(net, as_int)

    def test_close_switch_that_would_loop_is_skipped(self, net):
        hit = apply_attack(net, AttackAction("AX", "close", (Effect("close_switch", "SW1"),)))
        assert not hit.find_switch("SW1").closed
        assert [l.status for l in hit.lines] == [l.status for l in net.lines]

    def test_close_switch_closes_once_its_loop_is_cut(self, net):
        hit = apply_attack(net, AttackAction("AX", "cut then close", (
            Effect("trip_line", "11-12"), Effect("close_switch", "SW1"))))
        assert hit.find_switch("SW1").closed
        assert not hit.find_line(11, 12).closed

    def test_open_switch_opens_the_named_switch(self, net, cat):
        closed = apply_defense(net, cat.defense("D2"))
        assert closed.find_switch("SW1").closed
        hit = apply_attack(closed, AttackAction("AX", "open", (Effect("open_switch", "SW1"),)))
        assert not hit.find_switch("SW1").closed
        assert closed.find_switch("SW1").closed  # input untouched


class TestApplyDefense:
    def test_d3_rejoins_cut_island(self, net, cat):
        attacked = apply_attack(net, cat.attack("A2"))
        # bus 15 stranded in {15..18} after 14-15 opens
        before = next(isl for isl in islands(attacked) if 15 in isl.buses)
        assert before.buses == frozenset({15, 16, 17, 18})
        defended = apply_defense(attacked, cat.defense("D3"))
        after = next(isl for isl in islands(defended) if 15 in isl.buses)
        # the tie pulls {7..14} in with it; the merge is DER-energized
        assert after.buses == frozenset(range(7, 19))
        assert after.energized

    def test_d9_threshold_sheds_heavy_loads(self, net, cat):
        defended = apply_defense(net, cat.defense("D9"))
        for b in net.buses:
            if b.load_p > 200.0:
                assert defended.shed(b.id) == 1.0
            else:
                assert defended.shed(b.id) == 0.0

    def test_d6_boosts_der_dispatch(self, net, cat):
        defended = apply_defense(net, cat.defense("D6"))
        der = defended.der_at_bus(5)
        assert der.dispatch_fraction == 1.0
        assert net.der_at_bus(5).dispatch_fraction == pytest.approx(0.7)

    def test_tie_close_opens_companion_on_pristine_network(self, net, cat):
        defended = apply_defense(net, cat.defense("D3"))
        assert defended.find_switch("SW2").closed
        assert not defended.find_line(14, 15).closed
        comps = islands(defended)
        assert len(comps) == 1  # still a single radial tree

    def test_tie_close_skips_companion_when_attack_already_cut(self, net, cat):
        attacked = apply_attack(net, cat.attack("A2"))
        defended = apply_defense(attacked, cat.defense("D3"))
        assert defended.find_switch("SW2").closed
        # 14-15 was opened by the attack, not re-touched
        assert not defended.find_line(14, 15).closed

    def test_unhelpful_companion_skips_the_close(self, net):
        wrong = DefenseAction("DX", "bad companion", (
            Effect("close_switch", "SW1"),
            Effect("companion_open", "28-29"),
        ))
        defended = apply_defense(net, wrong)
        assert not defended.find_switch("SW1").closed
        assert defended.find_line(28, 29).closed  # trial open rolled back

    def test_orphan_companion_rejected(self, net):
        bad = DefenseAction("DX", "bad", (Effect("companion_open", "14-15"),))
        with pytest.raises(CatalogError):
            apply_defense(net, bad)


class TestEvaluatePair:
    def test_untouched_network_scores_ones(self, net, cat):
        card = evaluate_pair(net, NO_ATTACK, cat.defense("D1"))
        assert card.lsr == 1.0
        assert card.clr == 1.0
        assert card.tss == 1.0

    def test_a3_d1_zeroes_drs(self, net, cat):
        card = evaluate_pair(net, cat.attack("A3"), cat.defense("D1"))
        assert card.drs == 0.0
        assert "empty-denominator" in card.flags

    def test_restoration_never_hurts_served_load(self, net, cat):
        with_tie = evaluate_pair(net, cat.attack("A2"), cat.defense("D3"))
        passive = evaluate_pair(net, cat.attack("A2"), cat.defense("D1"))
        assert with_tie.lsr >= passive.lsr

    def test_d1_identity(self, net, cat):
        for aid in ("A2", "A5", "A9"):
            attacked = apply_attack(net, cat.attack(aid))
            direct = evaluate_pair(net, cat.attack(aid), cat.defense("D1"))
            same = evaluate_pair(attacked, NO_ATTACK, cat.defense("D1"))
            # identical post-attack network, so identical metrics...
            # except LSR/CLR denominators, which D1 leaves equal anyway
            assert direct.lsr == pytest.approx(same.lsr)
            assert direct.clr == pytest.approx(same.clr)
            assert direct.tss == pytest.approx(same.tss)
            assert direct.drs == pytest.approx(same.drs)

    def test_metrics_bounded_for_all_pairs(self, net, cat):
        for a in cat.attacks:
            for d in (cat.defense("D1"), cat.defense("D5"), cat.defense("D9")):
                card = evaluate_pair(net, a, d)
                for v in (card.lsr, card.clr, card.tss, card.drs):
                    assert 0.0 <= v <= 1.0

    def test_purity(self, net, cat):
        before = net
        evaluate_pair(net, cat.attack("A10"), cat.defense("D10"))
        assert net == before


class TestSerialization:
    def test_bundled_catalog_is_pinned(self, cat):
        blob = json.dumps(cat.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "2d20bf769acd7d73c3fb49331f9d3852d78b4bcb4c2c79365275405172c6edc9")
        assert cat.version == "default-1"

    def test_reader_errors_name_the_document(self):
        doc = {"attacks": [{"id": "A1", "effects": [{"kind": "melt"}]}]}
        with pytest.raises(CatalogError, match=r"^catalog_default\.json: A1: unknown attack"):
            scenario._read_catalog(doc, "catalog_default.json")

    @pytest.mark.parametrize("kind, amount", [
        ("scale_load", 1.0), ("set_der_dispatch", 1.0), ("shed_fraction", 0.0),
        ("trip_line", None)])
    def test_an_effect_without_a_value_takes_its_default_amount(self, kind, amount):
        assert Effect(kind, "*").value == amount

    def test_round_trip(self, cat, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(cat.to_json()))
        back = load_catalog(path)
        assert back == cat

    def test_override_replaces_one_entry(self, cat, tmp_path):
        path = tmp_path / "override.json"
        payload = {
            "attacks": [
                {"id": "A6", "label": "cut 9-10 instead",
                 "effects": [{"kind": "trip_line", "target": "9-10"}]}
            ]
        }
        path.write_text(json.dumps(payload))
        merged = load_catalog(path)
        assert merged.attack("A6").effects == (Effect("trip_line", "9-10"),)
        assert merged.attack("A2") == cat.attack("A2")
        assert merged.defenses == cat.defenses

    def test_unknown_id_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"attacks": [{"id": "A99", "effects": []}]}))
        with pytest.raises(CatalogError):
            load_catalog(path)

    def test_replace_mode_shrinks_attack_set(self, cat, tmp_path):
        path = tmp_path / "single.json"
        payload = {
            "replace": True,
            "attacks": [
                {"id": "A6", "effects": [{"kind": "trip_line", "target": "3-4"}]}
            ],
        }
        path.write_text(json.dumps(payload))
        small = load_catalog(path)
        assert len(small.attacks) == 1
        assert small.attacks[0].id == "A6"
        # absent array keeps the default side intact
        assert small.defenses == cat.defenses

    def test_replace_mode_rejects_duplicate_ids(self, tmp_path):
        path = tmp_path / "dupes.json"
        payload = {
            "replace": True,
            "attacks": [{"id": "X", "effects": []}, {"id": "X", "effects": []}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(CatalogError):
            load_catalog(path)

    def test_merge_mode_rejects_duplicate_ids(self, tmp_path):
        # a repeated override must not silently keep its last entry
        path = tmp_path / "dupes.json"
        payload = {"attacks": [
            {"id": "A1", "effects": []},
            {"id": "A1", "effects": [{"kind": "trip_line", "target": "3-4"}]},
        ]}
        path.write_text(json.dumps(payload))
        with pytest.raises(CatalogError, match="duplicate action ids"):
            load_catalog(path)

    def test_garbage_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CatalogError):
            load_catalog(path)


def test_readme_effect_table_lists_each_sides_kinds():
    # the documented grammar and the one interpreter's kinds cannot drift apart
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    documented = {"attack": set(), "defense": set()}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.split("|")]
        if len(cells) > 2 and cells[1] in documented:
            documented[cells[1]] |= set(re.findall(r"`(\w+)`", cells[2]))
    assert documented == {"attack": set(scenario.ATTACK_KINDS),
                          "defense": set(scenario.DEFENSE_KINDS)}


# -- compiled pairs against the scalar oracle ---------------------------------

WEIGHTS = ahp_weights(np.asarray(DEFAULT_AHP_MATRIX))
# the last range pushes DER islands past their capacity, so they curtail
MULTIPLIER_RANGES = ((0.9, 1.1), (0.0, 0.0), (1.0, 1.0), (0.0, 3.0))


def _multiplier_rows(n_buses: int, per_range: int = 3, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.vstack([rng.uniform(lo, hi, (per_range, n_buses))
                      for lo, hi in MULTIPLIER_RANGES])


def _perturbed(base, row):
    return base.with_scaled_loads({b.id: m for b, m in zip(base.buses, row)})


def _scalar_scores(base, attack, defense, rows) -> list:
    return [unified_score(pair_oracle.evaluate_pair(_perturbed(base, row), attack, defense),
                          WEIGHTS)
            for row in rows]


def _assert_batch_matches_scalar(base, catalog, rows) -> None:
    for a in catalog.attacks:
        for d in catalog.defenses:
            got = compile_pair(base, a, d).scores(rows, WEIGHTS)
            assert got.tolist() == _scalar_scores(base, a, d, rows), (a.id, d.id)


def _stress_catalog() -> ScenarioCatalog:
    """Load scaling everywhere and on DER buses, DER islands that must
    curtail, and shed_threshold on either side of shed_fraction."""
    attacks = (
        AttackAction("S1", "inflate every load", (Effect("scale_load", "*", 1.5),)),
        AttackAction("S2", "island DER2 and DER4, inflate their buses, then all", (
            Effect("trip_line", "5-6"),
            Effect("scale_load", (18, 29), 2.5),
            Effect("scale_load", "*", 1.1),
        )),
        AttackAction("S3", "island the 15-18 and 29-33 tails, inflate 15-18", (
            Effect("trip_line", "14-15"),
            Effect("trip_line", "28-29"),
            Effect("scale_load", (15, 16, 17, 18), 3.0),
        )),
    )
    defenses = (
        DefenseAction("T1", "no action", ()),
        DefenseAction("T2", "threshold, then fraction", (
            Effect("shed_threshold", None, 150.0),
            Effect("shed_fraction", "non-critical", 0.2),
        )),
        DefenseAction("T3", "fraction, then threshold", (
            Effect("shed_fraction", "*", 0.1),
            Effect("shed_threshold", None, 120.0),
        )),
        DefenseAction("T4", "full DER dispatch, then threshold", (
            Effect("set_der_dispatch", "*", 1.0),
            Effect("shed_threshold", None, 300.0),
        )),
    )
    return ScenarioCatalog(attacks=attacks, defenses=defenses, version="stress")


class TestCompilePair:
    def test_bundled_catalog_matches_scalar(self, net, cat):
        _assert_batch_matches_scalar(net, cat, _multiplier_rows(net.n_buses))

    def test_probe_catalog_matches_scalar(self):
        feeder = synthetic_feeder(40, 1)
        _assert_batch_matches_scalar(feeder, _probe_catalog(feeder),
                                     _multiplier_rows(feeder.n_buses, seed=1))

    def test_stress_catalog_matches_scalar(self, net):
        _assert_batch_matches_scalar(net, _stress_catalog(),
                                     _multiplier_rows(net.n_buses, per_range=5, seed=2))

    def test_stress_rows_reach_curtailment(self, net):
        # the (0, 3) rows must exercise the DER-island curtailment branch
        stress = _stress_catalog()
        rows = _multiplier_rows(net.n_buses, per_range=5, seed=2)
        plan = compile_pair(net, stress.attack("S3"), stress.defense("T1"))
        assert scenario.serve_loads(plan, rows).curtailed.any()

    @settings(max_examples=40, deadline=None)
    @given(cell=st.tuples(st.integers(0, 9), st.integers(0, 9)),
           rows=st.lists(st.lists(st.floats(0.0, 3.0), min_size=33, max_size=33),
                         min_size=1, max_size=4))
    def test_property_random_rows(self, net, cat, cell, rows):
        a, d = cat.attacks[cell[0]], cat.defenses[cell[1]]
        got = compile_pair(net, a, d).scores(np.array(rows), WEIGHTS)
        assert got.tolist() == _scalar_scores(net, a, d, rows)

    def test_der_rating_near_the_float_limit_is_shared_not_overflowed(self, net, cat):
        # DER2 (bus 18) alone feeds the island that A2 cuts off. With a rating
        # of 1e308 the island's load times the rating overflows, and an inf
        # share would credit DER2 with all of its 7e307 kW: DRS 1.0
        big = replace(net, ders=tuple(replace(d, rating_p=1e308) if d.id == "DER2" else d
                                      for d in net.ders))
        a, d = cat.attack("A2"), cat.defense("D1")
        card = evaluate_pair(big, a, d)
        assert card == pair_oracle.evaluate_pair(big, a, d)
        # the slack-fed DERs use 504 + 532 + 560 kW and DER2 the island's 270 kW
        assert card.drs == pytest.approx(1866.0 / 7e307, rel=1e-9)

    def test_plan_leaves_inputs_untouched(self, net, cat):
        rows = _multiplier_rows(net.n_buses)
        before = rows.copy()
        plan = compile_pair(net, cat.attack("A4"), cat.defense("D9"))
        first = plan.scores(rows, WEIGHTS)
        assert np.array_equal(rows, before)
        assert plan.scores(rows, WEIGHTS).tolist() == first.tolist()
        assert net == load_ieee33()


def _oracle_cases():
    net, feeder = load_ieee33(), synthetic_feeder(40, 1)
    return [
        pytest.param(net, catalog_default(), id="bundled"),
        pytest.param(net, _stress_catalog(), id="stress"),
        pytest.param(feeder, _probe_catalog(feeder), id="probe"),
    ]


@pytest.mark.parametrize("base, catalog", _oracle_cases())
def test_evaluate_pair_matches_oracle(base, catalog):
    # the whole scorecard, flags included, on every cell
    for a in catalog.attacks:
        for d in catalog.defenses:
            assert evaluate_pair(base, a, d) == pair_oracle.evaluate_pair(base, a, d), (a.id, d.id)


def _dead_loop_feeder() -> NetworkState:
    """Slack feeder 1-2-3 plus a de-energized looped island 4-5-6 that the
    open tie switch 3-4 can join."""
    lines = (
        Line("1-2", 1, 2, 0.1, 0.1), Line("2-3", 2, 3, 0.1, 0.1),
        Line("4-5", 4, 5, 0.1, 0.1), Line("5-6", 5, 6, 0.1, 0.1),
        Line("6-4", 6, 4, 0.1, 0.1),
    )
    return NetworkState(buses=tuple(Bus(i, 10.0, 5.0) for i in range(1, 7)),
                        lines=lines, switches=(Line("SW", 3, 4, 0.1, 0.1, OPEN),))


def _error_cases():
    net, cat = load_ieee33(), catalog_default()
    looped = net.with_line_status("SW1", CLOSED)
    bad_line = AttackAction("AX", "no such line", (Effect("trip_line", "1-33"),))
    bad_switch = DefenseAction("DX", "no such switch", (Effect("close_switch", "SW9"),))
    orphan = DefenseAction("DY", "orphan", (Effect("companion_open", "14-15"),))
    join = DefenseAction("DZ", "join the looped island", (Effect("close_switch", "SW"),))
    return [
        pytest.param(looped, cat.attack("A6"), cat.defense("D1"), RadialityError,
                     id="base-loop"),
        pytest.param(looped, bad_line, cat.defense("D1"), RadialityError,
                     id="base-loop-before-catalog"),
        pytest.param(net, bad_line, cat.defense("D1"), CatalogError, id="bad-attack"),
        pytest.param(net, cat.attack("A2"), bad_switch, CatalogError, id="bad-defense"),
        pytest.param(net, cat.attack("A2"), orphan, CatalogError, id="orphan-companion"),
        pytest.param(_dead_loop_feeder(), NO_ATTACK, join, RadialityError,
                     id="defense-energizes-loop"),
    ]


@pytest.mark.parametrize("base, attack, defense, error", _error_cases())
def test_compile_pair_raises_where_scalar_does(base, attack, defense, error):
    for evaluate in (pair_oracle.evaluate_pair, evaluate_pair, compile_pair):
        with pytest.raises(error):
            evaluate(base, attack, defense)


# -- properties over random feeders and catalogs --------------------------------

@st.composite
def feeder_cells(draw):
    """A random feeder of ``test_powerflow.FEEDERS`` with one attack and one
    defense drawn from its own buses, lines, switches and DERs: load scaling
    up to 3x, trips, switching, DER dispatch and both kinds of shedding."""
    state = draw(FEEDERS)
    buses = [b.id for b in state.buses]
    lines = [(ln.from_bus, ln.to_bus) for ln in state.lines]
    switches = [sw.id for sw in state.switches]
    ders = [d.id for d in state.ders] + ["*"]
    bus_target = st.one_of(st.sampled_from(["*", "non-critical"]), st.sampled_from(buses),
                           st.lists(st.sampled_from(buses), min_size=1, max_size=3).map(tuple))
    share = st.floats(0.0, 1.0)

    def one(kind, target, value=st.none()):
        return st.tuples(st.builds(Effect, st.just(kind), target, value))

    attack = [one("scale_load", bus_target, st.floats(0.0, 3.0)),
              one("trip_der", st.sampled_from(ders)), one("fdi_bias", st.sampled_from(ders))]
    defense = [one("shed_fraction", bus_target, share),
               one("shed_threshold", st.none(), st.floats(0.0, 600.0)),
               one("set_der_dispatch", st.sampled_from(ders), share)]
    if lines:
        attack.append(one("trip_line", st.sampled_from(lines)))
    if switches:
        attack += [one("open_switch", st.sampled_from(switches)),
                   one("close_switch", st.sampled_from(switches))]
        defense.append(one("close_switch", st.sampled_from(switches)))
    if switches and lines:
        defense.append(st.tuples(
            st.builds(Effect, st.just("close_switch"), st.sampled_from(switches)),
            st.builds(Effect, st.just("companion_open"), st.sampled_from(lines))))

    def action(cls, name, groups):
        return cls(name, name, tuple(e for group in draw(st.lists(st.one_of(groups), max_size=4))
                                     for e in group))
    return state, action(AttackAction, "AX", attack), action(DefenseAction, "DX", defense)


@settings(max_examples=150, deadline=None)
@given(cell=feeder_cells())
def test_property_actions_leave_their_input_unchanged(cell):
    state, attack, defense = cell
    before = copy.deepcopy(state)
    topology.connectivity(state)  # so that load-only derivations carry it
    with derived_states() as made:
        attacked = apply_attack(state, attack)
        assert state == before
        after_attack = copy.deepcopy(attacked)
        apply_defense(attacked, defense)
        assert attacked == after_attack
        apply_defense(state, defense)
        assert state == before
    # every derived state passes the full validator the derivations skip
    for derived in made:
        assert_revalidates(derived)


@settings(max_examples=150, deadline=None)
@given(cell=feeder_cells(), seed=st.integers(0, 2**32 - 1))
def test_property_metrics_and_scores_lie_in_the_unit_interval(cell, seed):
    state, attack, defense = cell
    try:
        plan = compile_pair(state, attack, defense)
    except RadialityError:
        assume(False)  # a loop the tie switch closed: no plan to score
    rows = np.random.default_rng(seed).uniform(0.0, 3.0, (4, state.n_buses))
    cards, _ = plan.metrics(scenario.serve_loads(plan, rows))
    assert ((0.0 <= cards) & (cards <= 1.0)).all()
    # AHP weights sum to 1 up to rounding, so a score may pass 1 by an ulp
    scores = plan.scores(rows, WEIGHTS)
    assert ((0.0 <= scores) & (scores <= 1.0 + 1e-12)).all()


def loopy_energized_islands(state):
    """The islands networkx finds hold a loop and a slack bus or online DER."""
    g = multigraph(state)
    return [c for c in nx.connected_components(g)
            if expected_reference(state, c) is not None and not nx.is_tree(g.subgraph(c))]


def cycle_rank(state):
    """Independent loops of the closed branches: edges - nodes + islands."""
    g = multigraph(state)
    return g.number_of_edges() - g.number_of_nodes() + nx.number_connected_components(g)


@settings(max_examples=150, deadline=None)
@given(cell=feeder_cells())
def test_property_defense_leaves_no_loop_in_an_energized_island(cell):
    state, attack, defense = cell
    attacked = apply_attack(state, attack)
    defended = apply_defense(attacked, defense)
    # a close that would loop is skipped, so the defense adds no loop of its own
    assert cycle_rank(defended) <= cycle_rank(attacked)
    loops = loopy_energized_islands(state) + loopy_energized_islands(defended)
    try:
        compile_pair(state, attack, defense)
    except RadialityError:
        assert loops
    else:
        assert not loops  # every energized island of the defended state is a tree
