"""Tests for machine topology and network/CPU models."""

import pytest
from hypothesis import given, strategies as st

import repro.upcxx as upcxx
from repro.gasnet.machine import Machine
from repro.gasnet.network import AriesNetwork, PATH_BTE, PATH_FMA
from repro.gasnet.cpumodel import HASWELL, KNL, platform_cpu
from repro.mpisim import run_mpi


class TestMachine:
    def test_basic_layout(self):
        m = Machine(n_nodes=4, procs_per_node=32)
        assert m.n_ranks == 128
        assert m.node_of(0) == 0
        assert m.node_of(31) == 0
        assert m.node_of(32) == 1
        assert m.node_of(127) == 3

    def test_same_node(self):
        m = Machine(n_nodes=2, procs_per_node=4)
        assert m.same_node(0, 3)
        assert not m.same_node(3, 4)

    def test_ranks_on_node(self):
        m = Machine(n_nodes=3, procs_per_node=2)
        assert list(m.ranks_on_node(1)) == [2, 3]

    def test_for_ranks_rounds_up(self):
        m = Machine.for_ranks(33, procs_per_node=32)
        assert m.n_nodes == 2
        assert m.n_ranks == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            Machine(n_nodes=0, procs_per_node=1)
        with pytest.raises(ValueError):
            Machine(n_nodes=1, procs_per_node=0)
        m = Machine(n_nodes=1, procs_per_node=4)
        with pytest.raises(ValueError):
            m.node_of(4)
        with pytest.raises(ValueError):
            m.ranks_on_node(1)
        with pytest.raises(ValueError, match="n_ranks"):
            Machine.for_ranks(0, procs_per_node=4)
        # ppn reaches for_ranks from run_spmd/run_mpi: name the argument,
        # not a ZeroDivisionError or a complaint about a derived n_nodes
        for bad in (0, -1):
            with pytest.raises(ValueError, match="procs_per_node must be >= 1"):
                Machine.for_ranks(2, procs_per_node=bad)
            with pytest.raises(ValueError, match="procs_per_node must be >= 1"):
                upcxx.run_spmd(lambda: None, 2, ppn=bad)
            with pytest.raises(ValueError, match="procs_per_node must be >= 1"):
                run_mpi(lambda: None, 2, ppn=bad)

    @given(st.integers(1, 10_000), st.integers(1, 68))
    def test_every_rank_has_exactly_one_node(self, n_ranks, ppn):
        m = Machine.for_ranks(n_ranks, ppn)
        # block placement: node ids nondecreasing, each node <= ppn ranks
        nodes = [m.node_of(r) for r in range(n_ranks)]
        assert nodes == sorted(nodes)
        for node in set(nodes):
            assert nodes.count(node) <= ppn


class TestNetwork:
    def test_latency_paths(self):
        net = AriesNetwork()
        assert net.latency(same_node=True) < net.latency(same_node=False)

    def test_occupancy_monotone_in_size(self):
        net = AriesNetwork()
        prev = 0.0
        for n in [0, 64, 1024, 65536]:
            occ = net.occupancy(n, PATH_FMA, same_node=False)
            assert occ > prev
            prev = occ

    def test_bte_beats_fma_for_large(self):
        net = AriesNetwork()
        big = 1 << 20
        assert net.occupancy(big, PATH_BTE, False) < net.occupancy(big, PATH_FMA, False)

    def test_fma_beats_bte_for_small(self):
        net = AriesNetwork()
        assert net.occupancy(8, PATH_FMA, False) < net.occupancy(8, PATH_BTE, False)

    def test_best_path_threshold(self):
        net = AriesNetwork()
        assert net.best_path(100, threshold=4096) == PATH_FMA
        assert net.best_path(4096, threshold=4096) == PATH_BTE

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            AriesNetwork().occupancy(-1, PATH_FMA, False)

    def test_unknown_path_rejected(self):
        with pytest.raises(ValueError):
            AriesNetwork().occupancy(8, "smoke-signals", False)


class TestCpuModel:
    def test_knl_slower_serial(self):
        assert KNL.serial_factor > HASWELL.serial_factor
        assert KNL.t(1e-6) > HASWELL.t(1e-6)

    def test_copy_time_linear(self):
        assert HASWELL.copy_time(2048) == pytest.approx(2 * HASWELL.copy_time(1024))

    def test_platform_lookup(self):
        assert platform_cpu("haswell") is HASWELL
        assert platform_cpu("KNL") is KNL
        with pytest.raises(ValueError):
            platform_cpu("epyc")

    def test_accumulate_time(self):
        assert HASWELL.accumulate_time(0) == 0.0
        assert HASWELL.accumulate_time(1000) > 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HASWELL.copy_time(-1)
        with pytest.raises(ValueError):
            HASWELL.accumulate_time(-5)
