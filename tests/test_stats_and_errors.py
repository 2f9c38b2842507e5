"""Coverage for cost ledgers, run reports and the error hierarchy."""

import numpy as np
import pytest

from repro.engine import CostLedger, RunReport
from repro.errors import (
    ConfigError,
    EngineError,
    ExperimentError,
    GraphError,
    GraphFormatError,
    PartitionError,
    ReproError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error",
        [
            GraphError,
            GraphFormatError,
            PartitionError,
            EngineError,
            ConfigError,
            ExperimentError,
        ],
    )
    def test_all_derive_from_repro_error(self, error):
        assert issubclass(error, ReproError)
        with pytest.raises(ReproError):
            raise error("boom")

    def test_format_error_is_graph_error(self):
        assert issubclass(GraphFormatError, GraphError)

    def test_catching_base_does_not_mask_others(self):
        with pytest.raises(ValueError):
            try:
                raise ValueError("not ours")
            except ReproError:  # pragma: no cover - must not trigger
                pytest.fail("ReproError must not catch ValueError")


class TestRunReport:
    def test_as_dict_merges_extra(self):
        report = RunReport(
            algorithm="x",
            num_machines=4,
            supersteps=2,
            total_time_s=1.0,
            time_per_iteration_s=0.5,
            network_bytes=10,
            cpu_seconds=0.1,
            extra={"ps": 0.7},
        )
        d = report.as_dict()
        assert d["algorithm"] == "x"
        assert d["ps"] == 0.7
        assert d["network_bytes"] == 10

    def test_extra_defaults_empty(self):
        report = RunReport("y", 1, 1, 0.0, 0.0, 0, 0.0)
        assert report.extra == {}
        assert "algorithm" in report.as_dict()


class TestCostLedger:
    def ledger(self):
        return CostLedger(record_bytes=8, message_header_bytes=32)

    def test_charge_ops_accumulates_as_int(self):
        ledger = self.ledger()
        ledger.charge_ops(np.int64(5))
        ledger.charge_ops(3)
        assert ledger.cpu_ops == 8
        assert type(ledger.cpu_ops) is int

    def test_pair_records_bill_only_the_off_diagonal(self):
        ledger = self.ledger()
        records = np.array([[9, 2, 0], [0, 9, 4], [1, 0, 9]])
        ledger.charge_pair_records(records)
        assert ledger.network_records == 7
        assert ledger.network_messages == 3
        assert records[0, 0] == 9  # the caller's matrix is left alone

    def test_counts_equal_pair_records_per_lane(self):
        """The fused kernel's per-lane counts are the same bill as
        charging each lane's record matrix on its own."""
        rng = np.random.default_rng(3)
        stacked = rng.integers(0, 3, size=(4, 5, 5))
        off = stacked.copy()
        off[:, np.arange(5), np.arange(5)] = 0
        records = off.sum(axis=(1, 2))
        messages = np.count_nonzero(off, axis=(1, 2))
        for lane in range(4):
            by_matrix, by_counts = self.ledger(), self.ledger()
            by_matrix.charge_pair_records(stacked[lane])
            by_counts.charge_counts(records[lane], messages[lane])
            assert by_matrix == by_counts

    def test_standalone_bytes_price_headers_and_records(self):
        ledger = self.ledger()
        ledger.charge_counts(records=10, messages=3)
        assert ledger.standalone_network_bytes() == 3 * 32 + 10 * 8
        assert self.ledger().standalone_network_bytes() == 0
