"""Per-layer unit costs, measured by timing single public calls on seeded
inputs of fixed size.

Every traced run reports all of these, whatever its workload, so each layer
has a number on every workload; the workload's own traced round adds the
counts that depend on what it ran.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

from latstat import (acceptance, constructions, correlation, generators, jsonio, lattice,
                     semimod)
from latstat.lattice import FnLattice, product_of_chains
from latstat.semimod import TransitiveRelation

from tracer import Tracer
from workloads import kernel_inputs, scan_specs

SPEEDUP_PAIRS = 5


def per_call(fn, min_batch: float = 0.003, batches: int = 5) -> float:
    """Median seconds per call over `batches` batches, each batch repeating
    the call until it lasts at least `min_batch` seconds."""
    reps = 1
    while True:
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        if perf_counter() - t0 >= min_batch:
            break
        reps *= 2
    samples = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(reps):
            fn()
        samples.append((perf_counter() - t0) / reps)
    return statistics.median(samples)


def run_probes(seed: int, size: str) -> dict:
    rng = random.Random(seed ^ 0x5EED)
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    fl = FnLattice.zero_to(2, 3)
    tl = product_of_chains([2, 2, 3])
    for n in range(3, 10):
        f = tuple(rng.choice(fl.elements()) for _ in range(n))
        engines = {
            "subset": lambda f=f: lattice.order_statistics_tuple(fl, f),
            "dual": lambda f=f: lattice.order_statistics_dual_tuple(fl, f),
            "sort": lambda f=f: lattice.pointwise_order_statistics(f),
            "chain": lambda f=f: semimod.insertion_chain(fl, f),
        }
        for engine, call in engines.items():
            put(f"lattice.ordstat_us.{engine}.n{n}", per_call(call) * 1e6, "us")

    f5 = tuple(rng.choice(fl.elements()) for _ in range(5))
    t5 = tuple(rng.choice(tl.elements()) for _ in range(5))
    put("semimod.chain_us.fn", per_call(lambda: semimod.insertion_chain(fl, f5)) * 1e6, "us")
    put("semimod.chain_us.table",
        per_call(lambda: semimod.insertion_chain(tl, t5)) * 1e6, "us")
    put("lattice.birkhoff_ms", per_call(lambda: lattice.birkhoff_embed(tl)) * 1e3, "ms")
    put("lattice.distributive_ms", per_call(lambda: lattice.is_distributive(tl)) * 1e3, "ms")

    specs = scan_specs(rng, "full")
    carriers = {key: jsonio.lattice_from_json(specs[key]) for key in ("fn", "m3")}
    on = {"schur": "fn", "multiadd": "fn", "potential": "fn", "quadratic": "m3"}
    for family, ckey in on.items():
        functional = jsonio.functional_from_json(specs[family], carriers[ckey])
        elems = carriers[ckey].elements()
        tuples = [tuple(rng.choice(elems) for _ in range(functional.arity)) for _ in range(64)]

        def evaluate_all(fn=functional.fn, tuples=tuples):
            for t in tuples:
                fn(t)

        put(f"constructions.eval_us.{family}",
            per_call(evaluate_all) / len(tuples) * 1e6, "us")
    put("constructions.construct_ms", per_call(
        lambda: [jsonio.functional_from_json(specs[fam], carriers[on[fam]])
                 for fam in ("schur", "multiadd", "potential")]) * 1e3, "ms")
    gen_seeds = [rng.randrange(2 ** 30) for _ in range(8)]
    put("generators.gen_ms", per_call(
        lambda: [generators.random_verified_functional(random.Random(s))
                 for s in gen_seeds]) / len(gen_seeds) * 1e3, "ms")

    for d in range(4, 9):
        matrix = [[Fraction(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(d)]
                  for _ in range(d)]
        put(f"constructions.permanent_ms.d{d}",
            per_call(lambda m=matrix: constructions.perm_orderstat_check(m)) * 1e3, "ms")

    k = kernel_inputs(rng)
    put("correlation.fkg_ms", per_call(lambda: correlation.corollary_fkg_check(
        k["sublattice"], k["F"], k["G"], measure=k["fkg_measure"], r=-1)) * 1e3, "ms")
    put("correlation.ahke_ms", per_call(lambda: correlation.corollary_ahke_check(
        k["families"], measure=k["fkg_measure"], r=-1)) * 1e3, "ms")
    put("correlation.logsupermod_ms", per_call(lambda: correlation.is_log_supermodular(
        correlation.inf_weight(), k["sublattice"])) * 1e3, "ms")

    lattice_specs = [specs[key] for key in ("fn", "m3")]
    put("jsonio.parse_ms", per_call(
        lambda: [jsonio.lattice_from_json(s) for s in lattice_specs]) * 1e3, "ms")
    demo = semimod.run_counterexample_m3()

    def serialise():
        return jsonio.dump_report(jsonio.make_report("demo m3", {"demo": "m3"}, demo))

    put("jsonio.serialise_ms", per_call(serialise) * 1e3, "ms")
    put("jsonio.report_bytes", len(serialise().encode()), "bytes")

    # The two quickest acceptance criteria, as `latstat reproduce` runs them.
    for num in (1, 10):
        put(f"acceptance.crit{num:02d}_ms",
            per_call(lambda num=num: acceptance.run_criterion(num)) * 1e3, "ms")

    # The scan workload's --jobs 2 scan (tiny in smoke runs), timed with one
    # and two jobs in alternating pairs, and once traced for self time.
    scan = scan_specs(random.Random(seed), size)
    scan_carrier = jsonio.lattice_from_json(scan["wide"])
    ge = TransitiveRelation.ge()
    scan_fn = jsonio.functional_from_json(scan["schur_wide"], scan_carrier)
    ratios = []
    for _ in range(SPEEDUP_PAIRS):
        walls = {}
        for jobs in (1, 2):
            t0 = perf_counter()
            semimod.check_generalized_n(scan_carrier, scan_fn, ge, jobs=jobs)
            walls[jobs] = perf_counter() - t0
        ratios.append(walls[1] / walls[2])
    put("semimod.jobs_speedup", statistics.median(ratios), "ratio")
    with Tracer(count_lattice_ops=False) as tr:
        traced_fn = jsonio.functional_from_json(scan["schur_wide"], scan_carrier)
        semimod.check_generalized_n(scan_carrier, traced_fn, ge)
    put("semimod.self_us_per_tuple", tr.self_s["semimod"] / tr.instances * 1e6, "us")
    return out
