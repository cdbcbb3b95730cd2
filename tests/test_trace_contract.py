"""The traced benchmark (perfbench/, run with --trace 1) wraps simulator
functions by name and binds their arguments by name; this runs its
instrumentation against the package so a rename or deletion it relies
on fails here rather than only in a traced benchmark run."""

from pathlib import Path

from smartran import engine
from smartran.config import ScenarioConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_benchmark_instruments_the_episode(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracing import Tracer

    original = engine.run_episode
    tracer = Tracer()
    audit = layers.Audit(sample_every=1)
    layers.instrument(tracer, audit)
    small = dict(
        rrs_count=2, subcarriers=4, n_users=4, cell_edge_snr_db=20.0,
        train_slots=6, eval_slots=4, batch_size=4, hidden_sizes=(8,),
        memory_depth=2, norm_warmup_slots=2, arrival_rate=0.8,
        departure_prob=0.2, max_users=8,
    )
    configs = [
        ScenarioConfig(**small, scheme="equal-power-baseline"),
        ScenarioConfig(**small, scheme="smart"),
        # from eight sites up, numpy sums a Fortran-ordered block over
        # sites pairwise; the audit recomputes these rates with its own
        # loops and checks the distributed kernel's dense result is zero
        # off the grants
        ScenarioConfig(
            rrs_count=8, subcarriers=4, n_users=16, cell_edge_snr_db=20.0,
            scheme="equal-power-baseline", train_slots=0, eval_slots=12,
            arrival_rate=1.2, departure_prob=0.2, max_users=20,
        ),
    ]
    try:
        for cfg in configs:
            # through the module attribute, which the tracer wraps
            engine.run_episode(cfg)
    finally:
        tracer.restore()
    assert audit.errors == []
    # two rate kernels per slot: ten slots in each small episode, twelve
    # in the 8-site one
    assert audit.grants_checked == 2 * (10 + 10 + 12)
    totals = tracer.totals()
    assert totals["engine.run_episode"][0] == 3
    assert totals["allocators.allocate_equal_power"][0] == 10 + 12
    # the role hooks read the allocators' first argument: the pool agent
    # and the list of site agents
    assert totals["learning.sac_update.cnt"][0] > 0
    assert totals["learning.sac_update.dst"][0] > 0
    assert totals["allocators.decode_action"][0] > 0
    assert engine.run_episode is original
