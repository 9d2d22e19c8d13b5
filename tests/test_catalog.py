import numpy as np

import pcohom as pc
from pcohom import catalog
from pcohom.catalog import (CATALOG_SEED, _subgroup_choices,
                            applicable_families, catalog_instances,
                            transfer_sweep)
from pcohom.homsearch import t_bundle


def test_applicable_families():
    labels2 = [f.label for f in applicable_families(2)]
    assert labels2 == ["zassenhaus(2,2)", "lower-central(2,2)"]
    labels3 = [f.label for f in applicable_families(3)]
    assert labels3 == ["zassenhaus(2,3)", "lower-central(2,3)", "mixed(3)"]


def test_catalog_shape_and_determinism():
    cat = catalog_instances()
    names = [nm for nm, G, p in cat]
    assert len(cat) >= 25
    assert len(set(names)) == len(names)
    assert all(G.order <= 128 for _, G, _ in cat)
    for nm in ["D4", "Q8", "Mp3:3", "Heis:3", "U:2:2", "U:2:3", "U:3:2",
               "Z/16", "Z/27", "Z/25"]:
        assert nm in names, nm
    assert sum(1 for nm in names if "/nc(" in nm) >= 8
    # the random quotients are reproducible from the fixed seed
    assert [nm for nm, _, _ in catalog_instances()] == names


def test_each_standin_is_closed_once(monkeypatch):
    """catalog_instances closes each of its four stand-ins once and lists
    those objects; the one of order 512 only feeds the quotients."""
    made = []
    close = catalog.free_nilpotent_standin
    monkeypatch.setattr(catalog, "free_nilpotent_standin",
                        lambda *args: made.append(close(*args)) or made[-1])
    by_name = {nm: G for nm, G, _ in catalog_instances()}
    assert [S.name for S in made] == [
        "standin:zassenhaus:2:2:2", "standin:lower-central:2:2:2",
        "standin:zassenhaus:3:2:2", "standin:zassenhaus:2:3:2"]
    assert made[2].order == 512 and made[2].name not in by_name
    for S in made[:2] + made[3:]:
        assert by_name[S.name] is S


def test_subgroup_choices():
    G = pc.builtin_group("U:3:2")
    fam = applicable_families(2)[0]
    tbar = t_bundle(G, fam).Tbar
    rng = np.random.default_rng(CATALOG_SEED)
    choices = _subgroup_choices(G, tbar, rng)
    labels = [lab for lab, N in choices]
    assert labels[0] == "trivial" and labels[1] == "tbar"
    for lab, N in choices:
        assert N.is_normal() and N <= tbar


def test_small_sweep():
    instances = [("Q8", pc.builtin_group("Q8"), 2),
                 ("Heis:3", pc.builtin_group("Heis:3"), 3)]
    sweep = transfer_sweep(instances=instances)
    assert sweep["groups"] == 2
    assert sweep["all_pass"] and sweep["failures"] == 0
    # 2 families at p=2 plus 3 at p=3, times the subgroup choices
    assert sweep["checks"] >= 5
    for rep in sweep["reports"]:
        assert rep["status"] == "PASS"
        assert {"instance", "N_label", "family", "dims"} <= set(rep)
