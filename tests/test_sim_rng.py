"""Tests for named RNG streams."""

from repro.sim.rng import RngRegistry, derive_seed


def test_same_name_same_stream_object():
    rng = RngRegistry(1)
    assert rng.stream("a") is rng.stream("a")


def test_different_names_independent():
    rng = RngRegistry(1)
    a = [rng.stream("a").random() for _ in range(5)]
    b = [rng.stream("b").random() for _ in range(5)]
    assert a != b


def test_deterministic_across_registries():
    first = [RngRegistry(7).stream("x").random() for _ in range(3)]
    second = [RngRegistry(7).stream("x").random() for _ in range(3)]
    assert first == second


def test_root_seed_changes_streams():
    a = RngRegistry(1).stream("x").random()
    b = RngRegistry(2).stream("x").random()
    assert a != b


def test_draw_order_between_streams_does_not_matter():
    """Interleaving draws on one stream must not perturb another."""
    rng1 = RngRegistry(3)
    rng1.stream("noise")  # created but never used
    a1 = [rng1.stream("a").random() for _ in range(3)]

    rng2 = RngRegistry(3)
    for _ in range(100):
        rng2.stream("noise").random()
    a2 = [rng2.stream("a").random() for _ in range(3)]
    assert a1 == a2


def test_derive_seed_is_stable():
    assert derive_seed(5, "net.latency") == derive_seed(5, "net.latency")
    assert derive_seed(5, "a") != derive_seed(5, "b")
    assert derive_seed(5, "a") != derive_seed(6, "a")

