"""Workload inputs, made from the seed, and the bodies that run them.

The entry point ``run.py`` makes each round's inputs with ``make_inputs``
and runs the body in a fresh interpreter:

    python3 perfbench/workloads.py setup WORKLOAD
    python3 perfbench/workloads.py identities|finite_boundary INPUTS OUT [--trace FILE]
    python3 perfbench/workloads.py verify_all INPUTS REPORT --trace FILE

``verify_all`` runs here only when traced; untraced it is the plain
``python3 -m relroots.cli verify`` command.  The bodies only compute and
write their outputs as JSON; the checks live in ``oracles.py``.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import oracles

WORKLOADS = ("verify_all", "identities", "finite_boundary")

# (root systems, Chevalley bases) that each workload builds; set-up time is
# importing relroots.cli and building these in a fresh interpreter
SETUP_TYPES = {
    "verify_all": (
        tuple("%s%d" % t for t in oracles.types_up_to(6)),
        ("A1", "A2", "A3", "A4", "A5", "D3", "D4", "D5", "B3", "B4",
         "C2", "C3", "C4", "C6", "G2", "F4")),
    "identities": (
        ("F4", "E6", "C2", "G2", "C3", "C4", "C5", "C6", "C8"),
        ("F4", "E6", "C2", "G2", "C3", "C4", "C5", "C6", "C8")),
    "finite_boundary": (("A2", "C2", "G2", "A3"), ("A2", "C2", "G2", "A3")),
}

CONSTANT_TYPES = ("F4", "E6")
C2_KS = (5, 6, 7, 8, 9)
G2_KS = (2, 3, 4, 5, 6)
CL_C2_LS = (4, 6, 8)
CL_BC2_LS = (3, 4, 5, 6)
GROUPS = (("A2", 2), ("C2", 2), ("G2", 2), ("C2", 3), ("A3", 2), ("A2", 3))


def _bound_eps(rng):
    """A rational eps with eps**2 - eps invertible, i.e. eps not 0 or 1."""
    while True:
        eps = Fraction(rng.choice((-1, 1)) * rng.randint(2, 9), rng.randint(1, 5))
        if eps != 1:
            return eps


def make_inputs(workload, seed):
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "verify_all":
        return {"seed": seed}
    if workload == "identities":
        pairs = []
        for t in CONSTANT_TYPES:
            rs = oracles.roots(*oracles.parse_type(t))
            for a in rs.positive:
                neg = tuple(-x for x in a)
                pairs += [[t, a, b] for b in sorted(rs.all) if b not in (a, neg)]
        rng.shuffle(pairs)
        return {"pairs": pairs, "eps": str(_bound_eps(rng)),
                "c2_ks": C2_KS, "g2_ks": G2_KS,
                "cl_c2_ls": CL_C2_LS, "cl_bc2_ls": CL_BC2_LS}
    if workload == "finite_boundary":
        groups = [list(g) for g in GROUPS]
        rng.shuffle(groups)
        return {"groups": groups}
    raise ValueError("unknown workload %r" % workload)


def expected_identity_cases(inputs):
    """Each identity call returns a long and a short (or fibre and chain) case."""
    return 2 * (2 * len(inputs["c2_ks"]) + 2 * len(inputs["g2_ks"])
                + len(inputs["cl_c2_ls"]) + len(inputs["cl_bc2_ls"]))


# -- bodies, run in the child process --------------------------------------


def run_setup(workload):
    import relroots.cli  # noqa: F401  (every CLI invocation pays this import)
    from relroots.chevalley import build_chevalley_basis
    from relroots.rootcore import RootType, build_root_system

    root_types, basis_types = SETUP_TYPES[workload]
    for t in root_types:
        build_root_system(RootType.parse(t))
    for t in basis_types:
        build_chevalley_basis(build_root_system(RootType.parse(t)))


def run_identities(inputs):
    from relroots.chevalley import build_chevalley_basis, commutator_constants
    from relroots.rootcore import RootType, build_root_system
    from relroots.theoremlab import (verify_C2_identities, verify_case_schemas,
                                     verify_G2_identities)

    bases = {}
    tables = []
    for t, a, b in inputs["pairs"]:
        if t not in bases:
            bases[t] = build_chevalley_basis(build_root_system(RootType.parse(t)))
        cb = bases[t]
        table = commutator_constants(cb, cb.rs.root_from_coords(tuple(a)),
                                     cb.rs.root_from_coords(tuple(b)))
        tables.append(sorted([i, j, c] for (i, j), c in table.items()))
    eps = Fraction(inputs["eps"])
    cases = []
    for k in inputs["c2_ks"]:
        for binding in (None, eps):
            cases += verify_C2_identities(k, eps_binding=binding)
    for k in inputs["g2_ks"]:
        for binding in (None, eps):
            cases += verify_G2_identities(k_long=k, k_short=max(k, 3),
                                          eps_binding=binding)
    for l in inputs["cl_c2_ls"]:
        cases += verify_case_schemas("Cl_C2", l=l, k=3)
    for l in inputs["cl_bc2_ls"]:
        cases += verify_case_schemas("Cl_BC2", l=l, k=4)
    return {"tables": tables,
            "cases": [[c.id, c.status] for c in cases]}


def run_finite_boundary(inputs):
    from relroots.finitelab import derived_subgroup_index, generate_elementary_group
    from relroots.rootcore import RootType

    rows = []
    for t, p in inputs["groups"]:
        g = generate_elementary_group(RootType.parse(t), p)
        rows.append([t, p, g.order, derived_subgroup_index(g)])
        del g
    return {"groups": rows}


def main(argv):
    if argv[0] == "setup":
        run_setup(argv[1])
        return 0
    workload, inputs_path, out_path = argv[:3]
    tracer = None
    if argv[3:5] and argv[3] == "--trace":
        from tracing import Tracer
        tracer = Tracer().install()
    with open(inputs_path) as fh:
        inputs = json.load(fh)
    if workload == "verify_all":
        import relroots.cli
        rc = relroots.cli.main(["verify", "--suite", "all", "--seed",
                                str(inputs["seed"]), "--report", out_path])
    else:
        body = {"identities": run_identities,
                "finite_boundary": run_finite_boundary}[workload]
        result = body(inputs)
        with open(out_path, "w") as fh:
            json.dump(result, fh)
        rc = 0
    if tracer is not None:
        tracer.uninstall()
        tracer.write(argv[4], workload)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
