"""Per-layer metrics, computed from the aggregates of a traced run.

Times (`*_s`) are self times: the set-up's share, traced once, plus the
minimum over traced passes, which drops passes the machine slowed (see
METHOD.md, "Drift").  They are raw seconds, not scaled by the reference
kernel, and carry no bound: read the counts first.  Counts are
the set-up's plus one traced pass's; they must repeat exactly from pass to
pass.  Work done in the untimed check
phase is never counted.  A metric whose traced function no longer exists is
reported as missing (value null).
"""

from __future__ import annotations

SCAN_KINDS = ("target", "influence_min", "influence_max")
CASCADES = ("propagation.activate", "propagation.is_target_set", "propagation.influence")
GENERATORS = (
    "verify.enumerate_small_circuits",
    "verify.random_circuit",
    "verify.random_graph",
    "verify.random_graph_min_degree_one",
)
PUSH = "propagation.Propagator.push_one"
POP = "propagation.Propagator.pop_to"


def _sum(table: dict, names, contexts) -> float:
    return sum(
        v
        for (ctx, name), v in table.items()
        if ctx != "check" and name in names and (contexts is None or ctx in contexts)
    )


def per_layer(setup: dict, passes: list[dict], totals: list[dict], check_s: float,
              overhead_ratio: float, missing: list[str]):
    """Return ({name: (value, unit)}, [counters that differ between passes])."""

    def time_s(names, contexts=None):
        if any(n in missing for n in names):
            return None
        return float(_sum(setup["self_s"], names, contexts)) + min(
            _sum(p["self_s"], names, contexts) for p in passes
        )

    def calls(names, contexts=None):
        if any(n in missing for n in names):
            return None
        return _sum(setup["calls"], names, contexts) + _sum(passes[0]["calls"], names, contexts)

    def count(counter, contexts=None, needs=()):
        if any(n in missing for n in needs):
            return None
        return _sum(setup["counts"], (counter,), contexts) + _sum(
            passes[0]["counts"], (counter,), contexts
        )

    def us_per_seed(kinds):
        rates = []
        for t in totals:
            s = sum(t.get(k, (0.0, 0))[0] for k in kinds)
            e = sum(t.get(k, (0.0, 0))[1] for k in kinds)
            rates.append(s / e * 1e6 if e else 0.0)
        return min(rates)

    explored = count("explored", SCAN_KINDS)
    attempted = count("scan_total", SCAN_KINDS)
    otss = ("solvers.optimal_target_set",)
    kinf = ("solvers.k_influence",)
    m = {
        "solvers.target_s": (time_s(otss, ("target",)), "s"),
        "solvers.target_explored": (count("explored", ("target",), otss), "count"),
        "solvers.target_us_per_seed": (us_per_seed(("target",)), "us"),
        "solvers.influence_min_s": (time_s(kinf, ("influence_min",)), "s"),
        "solvers.influence_min_explored": (count("explored", ("influence_min",), kinf), "count"),
        "solvers.influence_max_s": (time_s(kinf, ("influence_max",)), "s"),
        "solvers.influence_max_explored": (count("explored", ("influence_max",), kinf), "count"),
        "solvers.influence_us_per_seed": (us_per_seed(("influence_min", "influence_max")), "us"),
        "solvers.scan_fraction": (explored / attempted if attempted else 0.0, "1"),
        "propagation.push_calls": (calls((PUSH,)), "count"),
        "propagation.push_s": (time_s((PUSH,)), "s"),
        "propagation.pop_s": (time_s((POP,)), "s"),
        "propagation.cascade_s": (time_s(CASCADES), "s"),
        "propagation.cascades": (calls(CASCADES), "count"),
        "propagation.activated": (count("activated", needs=CASCADES[:1]), "count"),
        "propagation.rounds": (count("rounds", needs=CASCADES[:1]), "count"),
        "instance.generate_s": (time_s(("instance.generate_random",)), "s"),
        "instance.parse_s": (time_s(("instance.parse_instance",)), "s"),
        "instance.write_s": (time_s(("instance.write_instance",)), "s"),
        "instance.text_bytes": (count("text_bytes", needs=("instance.write_instance",)), "B"),
        "verify.enumerate_s": (time_s(GENERATORS), "s"),
        "circuits.evaluate_s": (time_s(("circuits.evaluate",)), "s"),
        "circuits.evaluate_calls": (calls(("circuits.evaluate",)), "count"),
        "gadgets.reduce_s": (time_s(("gadgets.reduce_thresholds_to_two",)), "s"),
        "gadgets.vertices": (count("gadget_vertices"), "count"),
        "gadgets.edges": (count("gadget_edges"), "count"),
        "reductions.mcs_to_tss_s": (time_s(("reductions.mcs_to_tss",)), "s"),
        "reductions.clique_s": (time_s(("reductions.clique_to_max_influence",)), "s"),
        "reductions.padding_s": (time_s(("reductions.choose_gap_padding",)), "s"),
        "reductions.vertices": (count("reduction_vertices"), "count"),
        "verify.oracle_s": (time_s(("verify.trace_violations",)), "s"),
        "verify.oracle_calls": (calls(("verify.trace_violations",)), "count"),
        "verify.check_s": (check_s, "s"),
        "cli.main_s": (time_s(("cli.main",)), "s"),
        "cli.calls": (calls(("cli.main",)), "count"),
        "cli.stdout_bytes": (totals[0].get("stdout_bytes", 0), "B"),
        "trace.overhead_ratio": (overhead_ratio, "1"),
    }
    unstable = sorted(
        f"{table}:{ctx}:{name}"
        for table in ("calls", "counts")
        for (ctx, name), v in passes[0][table].items()
        if ctx != "check" and any(p[table].get((ctx, name)) != v for p in passes[1:])
    )
    return m, unstable
