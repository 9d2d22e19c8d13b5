"""Command-line front end producing JSON-lines reports.

Exit codes: 0 all checks agree, 1 a theorem-level disagreement was found
(a transfer check that FAILs, an inconclusive counterexample).  Every
failure is an `errors.PcohomError`, and a `PcohomError` exits with its
`exit_code` and writes one JSON error record {"schema_version", "command",
"error"} after any reports already made: 1 for two internal oracles that
disagree or a broken internal invariant, 2 for an exceeded search budget,
3 for a malformed manifest or arguments (a bad flag, group, subgroup or
family spec, a p that is not prime, a count flag that is not a positive
integer, a sweep group that is not a p-group, too few Massey characters, a
subgroup outside Tbar, N1 not inside N2, or a group over a size cap).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import numpy as np

from . import __version__
from .catalog import transfer_sweep
from .cohomology import h1, h2_space, massey_pullback_set
from .core import (FiniteGroup, Subgroup, builtin_group, center,
                   normal_closure, signature, spec_ints, spec_positive,
                   spec_prime)
from .errors import PcohomError, SpecError
from .filtrations import lower_p_central, zassenhaus
from .homsearch import DEFAULT_BUDGET, hom_count, t_bundle
from .magnus import (counterexample_harness, free_nilpotent_standin,
                     lyndon_words)
from .pairings import (STANDIN_CAVEAT, a_pairing, c_pairing,
                       kernel_generating_condition, pairing_kernels,
                       transfer_check)
from .unitriangular import parse_family

SCHEMA_VERSION = 1

CONVENTIONS = {
    "commutator": "[a, b] = a^-1 b^-1 a b",
    "filtration_indexing": "1-indexed; term 1 is the whole group",
    "section": "coset representative with corner entry reduced below p^(e-1)",
    "caveat": STANDIN_CAVEAT,
}


def resolve_group(spec: str) -> FiniteGroup:
    if spec.startswith("standin:"):
        kind, *fields = spec.split(":")[1:]
        k, p, n = spec_ints(spec, fields, 3)
        return free_nilpotent_standin(k, p, kind, n)
    return builtin_group(spec)


def resolve_subgroup(G: FiniteGroup, spec: str, fam=None) -> Subgroup:
    if spec == "trivial":
        return G.trivial_subgroup()
    if spec == "whole":
        return G.whole()
    if spec == "center":
        return center(G)
    if spec == "tbar":
        if fam is None:
            raise SpecError("subgroup 'tbar' needs --family")
        return t_bundle(G, fam).Tbar
    if spec.startswith("lpc:"):
        fields = spec.split(":")[1:]
        if len(fields) == 1:
            fields.append("2")                 # p defaults to 2
        k, p = spec_ints(spec, fields, 2)
        return lower_p_central(G, spec_prime(p), k).term(k)
    if spec.startswith("ids:"):
        ids = spec[4:].split(",")
        if not all(x.isdigit() and int(x) < G.order for x in ids):
            raise SpecError(f"{spec!r}: ids must lie below {G.order}")
        return normal_closure(G, [int(x) for x in ids])
    raise SpecError(f"unknown subgroup spec {spec!r}")


def _wrap(command: str, G, payload: dict, args) -> dict:
    rep = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "conventions": CONVENTIONS,
        "budget_prefixes": args.budget_prefixes,
    }
    if G is not None:
        rep["group"] = G.name or "anon"
        rep["group_key"] = G.key
        rep["group_order"] = G.order
    rep.update(payload)
    return rep


# ---------------------------------------------------------------------
# Subcommand bodies: each returns (payload dict, ok bool)
# ---------------------------------------------------------------------

def cmd_group_info(args):
    G = resolve_group(args.group)
    sig = signature(G)
    return G, {"signature": {"order": sig[0], "exponent": sig[1],
                             "center_order": sig[3], "derived_order": sig[4]},
               "generators": [int(x) for x in G.generators]}, True


def cmd_filtration(args):
    G = resolve_group(args.group)
    fn = zassenhaus if args.kind == "zassenhaus" else lower_p_central
    chain = fn(G, args.p, args.upto)
    return G, {"kind": args.kind, "p": args.p,
               "orders": chain.orders()}, True


def cmd_t_subgroups(args):
    G = resolve_group(args.group)
    fam = parse_family(args.family)
    bundle = t_bundle(G, fam, budget=args.budget_prefixes)
    return G, {
        "family": fam.label,
        "T_order": bundle.T.order,
        "Tbar_order": bundle.Tbar.order,
        "T_members": [int(x) for x in bundle.T.members],
        "Tbar_members": [int(x) for x in bundle.Tbar.members],
    }, True


def cmd_hom_count(args):
    G = resolve_group(args.group)
    U = resolve_group(args.codomain)
    count, explored = hom_count(G, U, budget=args.budget_prefixes)
    return G, {"codomain": U.name, "hom_count": count,
               "explored_prefixes": explored}, True


def cmd_h2(args):
    G = resolve_group(args.group)
    space = h2_space(G, args.p)
    return G, {"p": args.p, "dim": space.dim}, True


def cmd_massey(args):
    G = resolve_group(args.group)
    fam = parse_family(args.family)
    chars = h1(G, fam.p)
    if args.chars:
        idx = args.chars.split(",")
        if not all(x.isdigit() and int(x) < len(chars) for x in idx):
            raise SpecError(f"--chars {args.chars!r}: indices must be below "
                            f"{len(chars)}")
        phis = [chars[int(i)] for i in idx]
    else:
        phis = chars[:fam.n]
    classes = massey_pullback_set(G, fam.n, phis, fam,
                                  budget=args.budget_prefixes)
    return G, {"family": fam.label, "n": fam.n,
               "defined": bool(classes),
               "value_count": len(classes),
               "values": [[int(x) for x in coords]
                          for _, coords, _ in classes]}, True


def cmd_pairings(args):
    G = resolve_group(args.group)
    fam = parse_family(args.family)
    N1 = resolve_subgroup(G, args.n1, fam)
    N2 = resolve_subgroup(G, args.n2, fam)
    pa = a_pairing(G, N1, N2, fam.p)
    fa = pairing_kernels(pa)
    cp = c_pairing(G, N1, N2, fam, budget=args.budget_prefixes)
    payload = {"family": fam.label}
    for name, m, flags in (("A", pa.matrix, fa),
                           ("B", cp["B"].matrix, cp["B_flags"]),
                           ("C", cp["C"].matrix, cp["C_flags"])):
        payload[name] = {"shape": list(m.shape), "rank": flags["rank"],
                         "perfect": flags["perfect"], "matrix": m.tolist()}
    return G, payload, True


def cmd_kernel_condition(args):
    G = resolve_group(args.group)
    fam = parse_family(args.family)
    N1 = resolve_subgroup(G, args.n1, fam)
    N2 = resolve_subgroup(G, args.n2, fam)
    holds, witness, dims = kernel_generating_condition(
        G, N1, N2, fam, budget=args.budget_prefixes)
    return G, {"family": fam.label, "holds": holds, "witness": witness,
               "dims": dims}, True


def cmd_transfer_check(args):
    G = resolve_group(args.group)
    fam = parse_family(args.family)
    N = resolve_subgroup(G, args.subgroup, fam)
    rep = transfer_check(G, N, fam, budget=args.budget_prefixes)
    return G, rep, rep["status"] == "PASS"


def cmd_transfer_sweep(args):
    instances = None
    if args.groups:
        instances = []
        for nm in args.groups.split(","):
            G = resolve_group(nm)
            instances.append((nm, G, _group_prime(G)))
    sweep = transfer_sweep(instances=instances, budget=args.budget_prefixes)
    payload = {k: sweep[k] for k in ("groups", "checks", "failures",
                                     "all_pass", "elapsed_seconds")}
    payload["reports"] = sweep["reports"]
    return None, payload, sweep["all_pass"]


def _group_prime(G: FiniteGroup) -> int:
    for p in (2, 3, 5, 7, 11, 13):
        # |G| > 1 divides p^k for k >= log2 |G| iff |G| is a power of p
        if G.order > 1 and p ** G.order.bit_length() % G.order == 0:
            return p
    raise SpecError(f"{G.name} is not a p-group for a small prime")


def cmd_counterexample(args):
    rep = counterexample_harness(k=args.k, p=args.p)
    return None, rep, rep["verdict"] == "transfer equality fails"


def cmd_lyndon(args):
    counts = {n: len(lyndon_words(args.k, n)) for n in range(1, args.upto + 1)}
    return None, {"k": args.k, "counts": counts}, True


# ---------------------------------------------------------------------
# Wiring
# ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as SpecError instead of exiting 2,
    which is reserved for an exceeded budget."""

    def error(self, message):
        raise SpecError(message)


def build_parser():
    ap = _Parser(
        prog="pcohom",
        description="finite verification of kernel-intersection subgroups, "
                    "mod-p cohomology pairings, and transfer checks")
    ap.add_argument("--manifest", help="JSON manifest of jobs to run")
    ap.add_argument("--budget-prefixes", type=spec_positive,
                    default=DEFAULT_BUDGET)
    ap.add_argument("--out", help="write JSON-lines reports here")
    sub = ap.add_subparsers(dest="command")

    def add(name, fn, *specs):
        sp = sub.add_parser(name)
        for flags, kw in specs:
            sp.add_argument(*flags, **kw)
        sp.set_defaults(fn=fn)
        return sp

    grp = (["--group"], {"required": True})
    fam = (["--family"], {"required": True,
                          "help": "zassenhaus:n:p | lower-central:n:p | mixed:p"})
    add("group-info", cmd_group_info, grp)
    add("filtration", cmd_filtration, grp,
        (["--kind"], {"choices": ["zassenhaus", "lower-central"],
                      "required": True}),
        (["--p"], {"type": spec_prime, "required": True}),
        (["--upto"], {"type": spec_positive, "default": 6}))
    add("t-subgroups", cmd_t_subgroups, grp, fam)
    add("hom-count", cmd_hom_count, grp, (["--codomain"], {"required": True}))
    add("h2", cmd_h2, grp, (["--p"], {"type": spec_prime, "required": True}))
    add("massey", cmd_massey, grp, fam,
        (["--chars"], {"help": "comma-separated character indices"}))
    add("pairings", cmd_pairings, grp, fam,
        (["--n1"], {"required": True}), (["--n2"], {"required": True}))
    add("kernel-condition", cmd_kernel_condition, grp, fam,
        (["--n1"], {"required": True}), (["--n2"], {"required": True}))
    add("transfer-check", cmd_transfer_check, grp, fam,
        (["--subgroup"], {"required": True}))
    add("transfer-sweep", cmd_transfer_sweep,
        (["--groups"], {"help": "comma-separated group names; default catalog"}))
    add("counterexample", cmd_counterexample,
        (["--k"], {"type": spec_positive, "default": 9}),
        (["--p"], {"type": spec_prime, "default": 2}))
    add("lyndon", cmd_lyndon,
        (["--k"], {"type": spec_positive, "default": 2}),
        (["--upto"], {"type": spec_positive, "default": 5}))
    return ap


def _open_out(path):
    """The --out file, opened before any job runs so that an unwritable
    path is malformed input, not a traceback after the work is done."""
    try:
        return open(path, "w")
    except OSError as e:
        raise SpecError(f"--out {path!r}: {e.strerror}") from None


def _emit(reports, fh):
    """One JSON line per report, to the --out file fh (then closed) or to
    stdout; no report writes nothing."""
    with fh or contextlib.nullcontext(sys.stdout) as out:
        for r in reports:
            out.write(json.dumps(r, default=_json_default) + "\n")


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _run_one(args) -> tuple:
    started = time.time()
    G, payload, ok = args.fn(args)
    payload.setdefault("elapsed_seconds", round(time.time() - started, 3))
    return _wrap(args.command, G, payload, args), ok


def _jobs(ap, args):
    """The parsed jobs to run: the command line's, or each manifest job's
    with the top-level budget."""
    if not args.manifest:
        if args.command is None:
            ap.print_help(sys.stderr)
            raise SpecError("no command given")
        yield args
        return
    try:
        with open(args.manifest) as fh:
            jobs = json.load(fh)["jobs"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise SpecError(f"malformed manifest: {e!r}") from None
    if not isinstance(jobs, list):
        raise SpecError("malformed manifest: 'jobs' is not a list")
    for job in jobs:
        if not isinstance(job, dict) or "command" not in job:
            raise SpecError(f"malformed manifest job: {job}")
        argv = [job["command"]]
        for key, val in job.items():
            if key != "command":
                argv += [f"--{key}", str(val)]
        jargs = ap.parse_args(argv)
        jargs.budget_prefixes = args.budget_prefixes
        yield jargs


def main(argv=None) -> int:
    ap = build_parser()
    reports, all_ok, command, out = [], True, None, None
    try:
        args = ap.parse_args(argv)
        out = _open_out(args.out) if args.out else None
        for jargs in _jobs(ap, args):
            command = jargs.command
            rep, ok = _run_one(jargs)
            reports.append(rep)
            all_ok = all_ok and ok
            command = None
    except PcohomError as e:
        reports.append({"schema_version": SCHEMA_VERSION, "command": command,
                        "error": f"{type(e).__name__}: {e}"})
        _emit(reports, out)
        return e.exit_code
    _emit(reports, out)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
