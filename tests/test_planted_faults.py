"""Planted faults that the checks and pins must catch.

Each fault is a monkeypatch of one function at its import site, run on
cold groups (`dataclasses.replace(G, _cache={})`) in a fresh twin
registry (`core._TWINS`), so no memo computed under the fault reaches a
later test and no warm cache hides the fault.  A fault is caught when
`h2_space` raises a `PcohomError` or a basis pin of
`test_cohomology.H2_BASIS_PINS` moves.

The faults of the relator route to Z^2 (`cohomology._relator_forms`):
- a dropped residual row: the residual rows short of one independent
  row (their rref less its last row), so the gauged solve keeps one
  vector too many, which is no cocycle;
- a flipped sign in one kept loop: the sign of the kept edge's own letter
  in the last kept relator, the one occurrence that is never a tree edge,
  so the fault always reaches a form.  Mod 2 a sign is no fault (-1 = 1);
  at odd p the loop check (`cohomology._kept_sums`) rejects the Z^2
  basis rows.

The faults of the kept coordinates (`cohomology._kept_sums`,
`cohomology._tree_coboundaries`):
- one exponent sum X[K, i] off by one: `h2_space` does not see it, and
  `h1`'s dimension check raises `OracleDisagreement`;
- a loop check that accepts every row: the rejection rows of
  `test_cohomology.test_gauge_matches_b2_span_on_catalog` are solved.
"""

import dataclasses
import weakref

import numpy as np
import pytest

import pcohom as pc
from pcohom import cohomology, core, gf
from pcohom.catalog import catalog_instances
from pcohom.errors import OracleDisagreement, PcohomError
import test_cohomology
from test_cohomology import H2_BASIS_PINS, basis_digest, perm_group


def pinned_groups():
    """(name, group, p) for every basis pin, in pin order."""
    cases = [(nm, pc.builtin_group(nm), p) for nm, p in
             [("Q8", 2), ("D4xZ/2", 2), ("Heis:3", 3), ("Mp3:3", 3),
              ("Meta:3", 3), ("U:2:4", 2), ("U:3:2", 2)]]
    cases += [c for c in catalog_instances()
              if c[0] == "standin:zassenhaus:2:2:2/nc(3)"]
    cases.append(("D4 on three generators",
                  perm_group(4, [(0, 1, 2, 3)], [(1, 3)], [(0, 2)]), 2))
    return cases


def outcome(nm, G, p, monkeypatch):
    """'raised', or whether the basis digest of a cold h2_space(G, p) built
    in a fresh twin registry kept the pin of nm ('pinned' or 'moved'), or
    the dimension when nm has no pin."""
    monkeypatch.setattr(core, "_TWINS", weakref.WeakValueDictionary())
    G = dataclasses.replace(G, _cache={})
    try:
        space = cohomology.h2_space(G, p)
    except PcohomError:
        return "raised"
    return space.dim if nm not in H2_BASIS_PINS else (
        "pinned" if basis_digest(space) == H2_BASIS_PINS[nm] else "moved")


def test_dropped_residual_row_is_caught(monkeypatch):
    """Where the residual rows are not all 0 (U:2:4, Mp3:5 and D4 on three
    generators among these groups), dropping one lets a non-cocycle into
    the gauged solve, and the check at the generators raises
    EdgeCheckFailed.  Elsewhere there is no row to drop and the pins
    hold."""
    forms_of = cohomology._relator_forms

    def dropped(G, p):
        forms, rows = forms_of(G, p)
        return forms, gf.rref(rows, p)[0][:-1]

    cases = pinned_groups() + [c for c in catalog_instances()
                               if c[0] == "Mp3:5"]
    residual = {nm: len(forms_of(dataclasses.replace(G, _cache={}), p)[1])
                for nm, G, p in cases}
    monkeypatch.setattr(cohomology, "_relator_forms", dropped)
    got = {nm: outcome(nm, G, p, monkeypatch) for nm, G, p in cases}
    monkeypatch.undo()
    assert {nm for nm, n in residual.items() if n} == {
        "U:2:4", "Mp3:5", "D4 on three generators"}
    for nm, result in got.items():
        assert result == ("raised" if residual[nm] else "pinned"), nm


def test_flipped_sign_in_a_kept_loop_is_caught(monkeypatch):
    """The sign of the last kept relator's own letter flipped: at odd p
    (Heis:3, Mp3:3 and Meta:3) the loop check rejects a Z^2 basis row and
    `h2_space` raises EdgeCheckFailed; at p = 2 the fault is no fault and
    every pin holds."""
    loops_of = cohomology._kept_loops

    def flipped(G):
        kept, loops, rounds = loops_of(G)
        E, sign = loops[-1]
        sign = sign.copy()
        c = int(np.flatnonzero(E[:, 0] == kept[-1])[0])
        sign[c] = -sign[c]
        return kept, loops[:-1] + [(E, sign)], rounds

    monkeypatch.setattr(cohomology, "_kept_loops", flipped)
    got = {(nm, p): outcome(nm, G, p, monkeypatch)
           for nm, G, p in pinned_groups()}
    monkeypatch.undo()
    assert {nm for nm, p in got if p > 2} == {"Heis:3", "Mp3:3", "Meta:3"}
    for (nm, p), result in got.items():
        assert result == ("raised" if p > 2 else "pinned"), nm


def test_exponent_sum_off_by_one_is_caught_by_h1(monkeypatch):
    """The last kept relator's exponent sum of the last generator off by
    one: `h2_space` builds on every pinned group, so dim H^2 may move
    without an error, and `h1`'s dimension check against the subgroup
    calculus raises OracleDisagreement on each."""
    tree_of = cohomology._tree_coboundaries

    def off_by_one(G, p):
        W, X, _ = tree_of(G, p)
        X = X.copy()
        X[-1, -1] = (X[-1, -1] + 1) % p
        return W, X, gf.Span(len(X), p, X.T)

    monkeypatch.setattr(cohomology, "_tree_coboundaries", off_by_one)
    for nm, G, p in pinned_groups():
        monkeypatch.setattr(core, "_TWINS", weakref.WeakValueDictionary())
        G = dataclasses.replace(G, _cache={})
        cohomology.h2_space(G, p)
        with pytest.raises(OracleDisagreement):
            cohomology.h1(G, p)


def test_loop_check_accepting_every_row_is_caught(monkeypatch):
    """A loop check that passes every row lets `column_coords` solve the
    loop sums of rows that are not cocycles: the first rejection row of
    `test_gauge_matches_b2_span_on_catalog` no longer raises."""
    sums_of = cohomology._kept_sums

    def accepting(G, u, p):
        L, bad = sums_of(G, u, p)
        return L, np.zeros_like(bad)

    monkeypatch.setattr(cohomology, "_kept_sums", accepting)
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        test_cohomology.test_gauge_matches_b2_span_on_catalog()
