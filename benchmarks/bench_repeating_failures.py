"""Section III-D — repeating failures and repair effectiveness."""

from benchmarks._shared import BENCH_SCALE, comparison, pct
from repro.analysis import repeating
from repro.simulation import calibration


def test_repeating_failures(benchmark, dataset):
    stats = benchmark.pedantic(
        repeating.repeating_stats, args=(dataset,), rounds=3, iterations=1
    )
    comparison(
        "repeating_failures",
        [
            ("fixed components that never repeat", "> 85 %",
             pct(stats.repeat_free_fraction)),
            ("ever-failed servers with repeats",
             pct(calibration.PAPER_TARGETS["repeating_server_share"]),
             pct(stats.repeating_server_fraction)),
            ("worst single server (failures, x scale)",
             "400+", f"{stats.max_failures_single_server} "
             f"(target ~{int(420 * max(BENCH_SCALE, 30/420))})"),
        ],
    )
    assert stats.repeat_free_fraction > 0.85
    assert 0.01 < stats.repeating_server_fraction < 0.12
    # The flapping BBU server exists at every scale.
    assert stats.max_failures_single_server >= 30


def test_repeat_chains(benchmark, dataset):
    chains = benchmark.pedantic(
        repeating.repeat_chains, args=(dataset,), rounds=3, iterations=1
    )
    stats = repeating.repeating_stats(dataset)
    # Every repeating component is exactly one chain, time-ordered.
    assert len(chains) == stats.n_repeating_components
    assert len({key[0] for key in chains}) == stats.n_repeating_servers
    assert all(
        len(chain) >= 2
        and all(a.error_time <= b.error_time for a, b in zip(chain, chain[1:]))
        for chain in chains.values()
    )
