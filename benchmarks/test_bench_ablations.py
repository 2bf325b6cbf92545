"""Ablation benchmarks over the design choices that the ablation drivers
(``repro.experiments.ablations``) vary."""

from repro.experiments import ablations


def test_bench_fim_rate(once):
    experiment = once(ablations.fim_rate_ablation, rates=(0.0, 0.1, 0.5))
    print()
    print(experiment.render())
    # FIM exposure must teach the FIM format: combined score improves from 0.
    zero = experiment.measured("fim_rate=0.0")
    small = experiment.measured("fim_rate=0.1")
    assert small < zero, "a nonzero FIM rate must beat zero exposure"


def test_bench_chunking(once):
    experiment = once(ablations.chunking_ablation)
    print()
    print(experiment.render())
    naive_integrity = next(
        r.measured_value for r in experiment.rows if r.name.startswith("naive note")
    )
    aware_integrity = next(
        r.measured_value
        for r in experiment.rows
        if r.name.startswith("code_aware note")
    )
    assert aware_integrity >= naive_integrity, (
        "code-aware chunking must not sever more migration notes than naive"
    )


def test_bench_decoders(once):
    experiment = once(ablations.decoder_ablation, shots=100)
    print()
    print(experiment.render())
    mwpm = experiment.measured("surface-3 MWPM")
    unionfind = experiment.measured("surface-3 union-find")
    # Union-find trades accuracy for speed; it must stay in the same regime.
    assert mwpm <= unionfind + 3.0
    assert unionfind < 25.0, "union-find must still decode far below chance"


def test_bench_distance(once):
    experiment = once(
        ablations.distance_ablation,
        physical_rates=(0.005, 0.05),
        distances=(3, 5),
        shots=100,
    )
    print()
    print(experiment.render())
    # Below threshold, both distances suppress errors strongly.
    assert experiment.measured("d=3, p=0.005") < 5.0
    assert experiment.measured("d=5, p=0.005") < 5.0
    # Logical error rates grow with physical rate.
    assert experiment.measured("d=3, p=0.05") > experiment.measured("d=3, p=0.005")


def test_bench_topology(once):
    experiment = once(ablations.topology_ablation)
    print()
    print(experiment.render())
    assert experiment.measured("grid-5x5") == 100.0
    assert experiment.measured("brisbane") == 0.0, (
        "heavy-hex must be rejected (paper Section V-E topology limitation)"
    )
    assert experiment.measured("ring-12") == 0.0
