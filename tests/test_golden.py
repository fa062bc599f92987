"""Byte-level pins of the matching tester's output.

The expected strings below were produced by the dict-loop implementation of
the pair histogram, the tester's rescale and the midpoint statistic (before
they moved onto numpy arrays), from exactly the inputs built here. Any change
to those steps that moves a bit of a statistic, a threshold, a sample count or
a detail shows up as a string mismatch.
"""

from __future__ import annotations

import numpy as np
import pytest

from posetdist import (
    Distribution,
    ExactDistAccess,
    LearnerSpec,
    PairHistogram,
    Rng,
    bipartite_bounded_degree_test,
    make_bipartite,
    make_matching,
    matching_monotonicity_test,
    pair_histogram,
    write_distribution,
    write_poset,
)
from posetdist.cli import main

EPS = 0.25


def _matching_inputs(n_pairs: int, seed: int):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.2, 1.0, n_pairs)
    mono = np.concatenate([lo, lo + rng.uniform(0.05, 1.0, n_pairs)])
    theta = rng.uniform(2.1 * EPS, 2.9 * EPS, n_pairs)
    far = np.concatenate([1.0 + theta, 1.0 - theta])
    # monotone with no margin on every other pair: sampling noise alone makes
    # violations, so the statistic is a long sum of small terms
    tight = np.concatenate([lo, np.where(np.arange(n_pairs) % 2 == 0, lo, 1.5 * lo)])
    return {name: Distribution(v / v.sum()) for name, v in (("mono", mono), ("far", far), ("tight", tight))}


def _bipartite_inputs(nb: int, seed: int):
    """Degree-3 bipartite poset (identity plus two random perfect matchings)
    with a monotone and a far distribution."""
    rng = np.random.default_rng(seed)
    edges = {(i, nb + i) for i in range(nb)}
    for _ in range(2):
        perm = rng.permutation(nb)
        edges.update((i, nb + int(perm[i])) for i in range(nb))
    G = make_bipartite(2 * nb, sorted(edges), bottom=range(nb))
    mono = np.concatenate([0.6 * (1 + 0.2 * rng.random(nb)), 1.4 * (1 + 0.2 * rng.random(nb))])
    far = np.concatenate([1.5 * (1 + 0.1 * rng.random(nb)), 0.5 * (1 + 0.1 * rng.random(nb))])
    return G, Distribution(mono / mono.sum()), Distribution(far / far.sum())


def _cli_csv(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


GOLDEN_MATCHING_CSV = {
    "mono": (
        "trial,decision,stat,threshold\n"
        "0,accept,0.0,0.05357142857142857\n"
        "1,accept,0.0,0.05357142857142857\n"
        "2,accept,0.0,0.05357142857142857\n"
    ),
    "far": (
        "trial,decision,stat,threshold\n"
        "0,reject,0.3130050989535916,0.05357142857142857\n"
        "1,reject,0.31033448007097936,0.05357142857142857\n"
        "2,reject,0.3094775469548293,0.05357142857142857\n"
    ),
    "tight": (
        "trial,decision,stat,threshold\n"
        "0,accept,0.000765048937637589,0.05357142857142857\n"
        "1,accept,0.0007072642778024944,0.05357142857142857\n"
        "2,accept,0.0003068046783136887,0.05357142857142857\n"
    ),
}

GOLDEN_BIPARTITE_CSV = {
    "mono": (
        "trial,decision,stat,threshold\n"
        "0,accept,0.0,0.008928571428571428\n"
        "1,accept,0.0,0.008928571428571428\n"
        "2,accept,0.0,0.008928571428571428\n"
    ),
    "far": (
        "trial,decision,stat,threshold\n"
        "0,reject,0.2477716661090511,0.008928571428571428\n"
        "1,reject,0.2478568931434668,0.008928571428571428\n"
        "2,reject,0.2460748568069308,0.008928571428571428\n"
    ),
}


@pytest.mark.parametrize("kind", ["mono", "far", "tight"])
def test_matching_csv_bytes_on_1e4_pairs(tmp_path, capsys, kind):
    n_pairs = 10_000
    write_poset(make_matching(n_pairs), tmp_path / "m.poset")
    write_distribution(_matching_inputs(n_pairs, 2024)[kind], tmp_path / "m.dist")
    out = _cli_csv(capsys, ["test", "--alg", "matching", "--poset", str(tmp_path / "m.poset"),
                            "--dist", str(tmp_path / "m.dist"), "--eps", str(EPS),
                            "--trials", "3", "--seed", "11"])
    assert out == GOLDEN_MATCHING_CSV[kind]


@pytest.mark.parametrize("kind", ["mono", "far"])
def test_bipartite_csv_bytes(tmp_path, capsys, kind):
    G, mono, far = _bipartite_inputs(200, 2025)
    write_poset(G, tmp_path / "b.poset")
    write_distribution(mono if kind == "mono" else far, tmp_path / "b.dist")
    out = _cli_csv(capsys, ["test", "--alg", "bipartite", "--poset", str(tmp_path / "b.poset"),
                            "--dist", str(tmp_path / "b.dist"), "--eps", str(EPS), "--delta", "3",
                            "--trials", "3", "--seed", "13"])
    assert out == GOLDEN_BIPARTITE_CSV[kind]


def _fractional_learner(cb, ct, step):
    """External learner with fractional counts: the plug-in histogram with
    each count scaled by 0.37."""
    g = pair_histogram(cb / max(cb.sum(), 1.0), ct / max(ct.sum(), 1.0), quantize=step)
    return PairHistogram({key: 0.37 * c for key, c in g.items()})


def _verdicts():
    inputs = _matching_inputs(1000, 7)
    G = make_matching(1000)
    out = []
    for k, kind in enumerate(("mono", "far", "tight", "far")):
        out.append(matching_monotonicity_test(G, ExactDistAccess(inputs[kind]), EPS, rng=Rng(7).derive(k)))
    learner = LearnerSpec(kind="external", learn_pair_histogram=_fractional_learner, budget_multiplier=2.0)
    for kind in ("far", "tight"):
        out.append(matching_monotonicity_test(G, ExactDistAccess(inputs[kind]), EPS, learner, Rng(8)))
    small = make_matching(5)
    p_small = Distribution(np.array([0.3, 0.05, 0.2, 0.1, 0.05, 0.02, 0.1, 0.03, 0.1, 0.05]))
    out.append(matching_monotonicity_test(small, ExactDistAccess(p_small), 0.9, rng=Rng(9)))
    B, bmono, bfar = _bipartite_inputs(60, 2026)
    for k, p in enumerate((bmono, bfar)):
        out.append(bipartite_bounded_degree_test(B, ExactDistAccess(p), 3, EPS, rng=Rng(10).derive(k)))
    return [repr(v) for v in out]


GOLDEN_VERDICTS = [
    "Verdict(decision='accept', stat=0.0, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.4215120624196586, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.31170968991195774, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.6558548324414816, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='accept', stat=0.002593431699056738, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.4749932737436848, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.31216803483690586, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.6560840233974071, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.11588786502398903, threshold=0.05357142857142857, samples=1008318, details={'bottom_mass': 0.6566021942542823, 'learn_budget': 907965, 'mass_budget': 100353})",
    "Verdict(decision='accept', stat=0.0023299848132601587, threshold=0.05357142857142857, samples=1008318, details={'bottom_mass': 0.47198389684414016, 'learn_budget': 907965, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.22597202875690156, threshold=0.1928571428571429, samples=31942, details={'bottom_mass': 0.5996900826446281, 'learn_budget': 24198, 'mass_budget': 7744})",
    "Verdict(decision='accept', stat=0.0, threshold=0.008928571428571428, samples=419069954, details={'bottom_mass': 0.39765818827222943, 'learn_budget': 415457281, 'mass_budget': 3612673})",
    "Verdict(decision='reject', stat=0.24451890549022592, threshold=0.008928571428571428, samples=419069954, details={'bottom_mass': 0.6167131650165958, 'learn_budget': 415457281, 'mass_budget': 3612673})",
]


def test_verdict_reprs():
    assert _verdicts() == GOLDEN_VERDICTS
