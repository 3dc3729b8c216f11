"""Unit tests for the small gasnet pieces: the transfer's completion
handle, AM inboxes, and the network device-path helpers."""

import pytest

from repro.gasnet.am import AMInbox, AMMessage
from repro.gasnet.handle import Transfer
from repro.gasnet.network import AriesNetwork


class TestHandle:
    def test_callbacks_fire_on_complete(self):
        h = Transfer(None, 0, "put")
        log = []
        h.on_complete(lambda hh: log.append(hh.time_done))
        assert not h.done
        h.complete(2.5, data=b"x")
        assert h.done and h.time_done == 2.5 and h.data == b"x"
        assert log == [2.5]

    def test_late_callback_fires_immediately(self):
        h = Transfer(None, 0)
        h.complete(1.0)
        log = []
        h.on_complete(lambda hh: log.append("now"))
        assert log == ["now"]

    def test_double_complete_rejected(self):
        h = Transfer(None, 0)
        h.complete(1.0)
        with pytest.raises(RuntimeError):
            h.complete(2.0)

    def test_multiple_callbacks_in_order(self):
        h = Transfer(None, 0)
        log = []
        for i in range(3):
            h.on_complete(lambda _h, i=i: log.append(i))
        h.complete(0.5)
        assert log == [0, 1, 2]


class TestAMInbox:
    def _msg(self, arrival, tag="t"):
        return AMMessage(src=0, dst=1, tag=tag, payload=None, nbytes=8, arrival=arrival)

    def test_fifo_poll_respects_due_time(self):
        box = AMInbox(1)
        box.deliver(self._msg(1.0, "a"))
        box.deliver(self._msg(2.0, "b"))
        assert not box.has_due(0.5)
        assert box.poll(0.5) is None
        assert box.has_due(1.5)
        assert box.poll(1.5).tag == "a"
        assert box.poll(1.5) is None  # 'b' not due yet
        assert box.poll(2.0).tag == "b"
        assert len(box) == 0

    def test_counters(self):
        box = AMInbox(0)
        for t in (1.0, 2.0):
            box.deliver(self._msg(t))
        box.poll(5.0)
        assert box.n_received == 2 and box.n_polled == 1


class TestDevicePathModel:
    def test_pcie_time_components(self):
        net = AriesNetwork()
        assert net.pcie_time(0) == net.pcie_latency
        big = net.pcie_time(1 << 20)
        assert big > net.pcie_latency
        assert big - net.pcie_latency == pytest.approx((1 << 20) / net.pcie_bw)

    def test_pcie_negative_rejected(self):
        with pytest.raises(ValueError):
            AriesNetwork().pcie_time(-1)

    def test_device_slower_than_nic_bandwidth(self):
        net = AriesNetwork()
        assert net.pcie_bw > net.bw_bte  # PCIe4-class link vs single NIC


class TestBenchHelpers:
    def test_improvement_convention(self):
        from repro.bench.harness import improvement

        assert improvement(2.0, 1.5) == pytest.approx(0.25)
        assert improvement(1.0, 1.0) == 0.0

    def test_platform_presets(self):
        from repro.gasnet.cpumodel import PLATFORMS, platform_cpu

        assert PLATFORMS["haswell"].ppn_dht == 32
        assert PLATFORMS["knl"].ppn_dht == 68
        assert PLATFORMS["knl"].ppn_eadd == 64
        assert platform_cpu(PLATFORMS["knl"].name).serial_factor > 1

    def test_dht_efficiency_helper(self):
        from repro.bench.dht_bench import efficiency
        from repro.util.records import BenchTable

        t = BenchTable("x", "p", "MB/s")
        s = t.new_series("v")
        for p, y in [(1, 100.0), (2, 50.0), (4, 100.0), (8, 150.0)]:
            s.add(p, y)
        eff = efficiency(t, "v", base_procs=2)
        assert eff[2] == pytest.approx(1.0)
        assert eff[4] == pytest.approx(1.0)
        assert eff[8] == pytest.approx(0.75)

    def test_save_table_writes_file(self, tmp_path, monkeypatch):
        import repro.bench.harness as hz
        from repro.util.records import BenchTable

        monkeypatch.setattr(hz, "RESULTS_DIR", str(tmp_path))
        t = BenchTable("T", "x", "y")
        t.new_series("s").add(1, 2.0)
        text = hz.save_table(t, "unit_test_table", extra="trailer")
        assert (tmp_path / "unit_test_table.txt").read_text().strip().endswith("trailer")
        assert "T" in text
