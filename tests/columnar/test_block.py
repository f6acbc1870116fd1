"""Column storage: schema round-trips, block caching, backends, CSR."""

from __future__ import annotations

from array import array
from random import Random

import pytest

from repro.columnar import (
    BACKENDS,
    ColumnBlock,
    CSRIndex,
    make_column,
    numpy_available,
    resolve_backend,
)
from repro.core.pif import SnapPif
from repro.core.state import PIF_COLUMNS, PifState, Phase
from repro.errors import ReproError
from repro.graphs import by_name, ring
from repro.runtime.state import Configuration

ACTIVE_BACKENDS = ["pure"] + (["numpy"] if numpy_available() else [])


def _random_config(net, seed: int) -> Configuration:
    protocol = SnapPif.for_network(net)
    return protocol.random_configuration(net, Random(seed))


class TestSchema:
    def test_pif_state_round_trips_through_rows(self) -> None:
        states = [
            PifState(Phase.B, None, 0, 3, True),
            PifState(Phase.F, 2, 5, 1, False),
            PifState(Phase.C, 0, 1, 0, True),
        ]
        for state in states:
            row = PIF_COLUMNS.encode_state(state)
            assert all(isinstance(v, int) for v in row)
            assert PIF_COLUMNS.decode_row(row) == state

    def test_par_none_encodes_as_minus_one(self) -> None:
        row = PIF_COLUMNS.encode_state(PifState(Phase.C, None, 0, 0, False))
        assert row[PIF_COLUMNS.names.index("par")] == -1

    def test_field_order_matches_names(self) -> None:
        assert PIF_COLUMNS.names == ("pif", "par", "level", "count", "fok")


class TestBackend:
    def test_resolve_rejects_unknown(self, monkeypatch) -> None:
        monkeypatch.delenv("REPRO_COLUMNAR_BACKEND", raising=False)
        with pytest.raises(ReproError, match="unknown columnar backend"):
            resolve_backend("psychic")

    def test_resolve_reads_environment(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", "pure")
        assert resolve_backend() == "pure"
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", "")
        assert resolve_backend() in ("numpy", "pure")

    def test_auto_prefers_numpy_when_available(self) -> None:
        resolved = resolve_backend("auto")
        assert resolved == ("numpy" if numpy_available() else "pure")

    def test_explicit_argument_beats_environment(self, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", "pure")
        assert resolve_backend("auto") in ("numpy", "pure")
        assert resolve_backend("pure") == "pure"

    def test_backends_constant_is_exhaustive(self) -> None:
        assert BACKENDS == ("auto", "numpy", "pure")

    def test_make_column_pure_is_array(self) -> None:
        col = make_column("pure", "q", [1, 2, 3])
        assert isinstance(col, array)
        assert list(col) == [1, 2, 3]

    @pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
    def test_make_column_numpy_dtype(self) -> None:
        import numpy as np

        col = make_column("numpy", "b", [0, 1, 2])
        assert isinstance(col, np.ndarray)
        assert col.dtype == np.int8


@pytest.mark.parametrize("backend", ACTIVE_BACKENDS)
class TestColumnBlock:
    def test_round_trip_preserves_configuration(self, backend: str) -> None:
        net = by_name("random-sparse", 9)
        config = _random_config(net, 3)
        block = ColumnBlock(PIF_COLUMNS, backend, config)
        assert block.materialize() == config
        # Seeded from the source: the very same object comes back.
        assert block.materialize() is config

    def test_write_row_invalidates_only_written_node(self, backend: str) -> None:
        net = ring(6)
        config = _random_config(net, 7)
        block = ColumnBlock(PIF_COLUMNS, backend, config)
        row = list(block.read_row(2))
        row[3] = 9  # count
        block.write_row(2, row)
        after = block.materialize()
        assert after is not config
        assert after[2].count == 9
        # Unwritten nodes reuse the original state objects.
        assert after[0] is config[0]
        assert after[5] is config[5]

    def test_materialize_caches_until_next_write(self, backend: str) -> None:
        net = ring(5)
        block = ColumnBlock(PIF_COLUMNS, backend, _random_config(net, 1))
        first = block.materialize()
        assert block.materialize() is first
        block.write_row(0, block.read_row(1))
        assert block.materialize() is not first

    def test_load_reseeds_with_source_objects(self, backend: str) -> None:
        net = ring(5)
        block = ColumnBlock(PIF_COLUMNS, backend, _random_config(net, 1))
        replacement = _random_config(net, 2)
        block.load(replacement)
        assert block.materialize() is replacement
        assert block.read_row(0) == PIF_COLUMNS.encode_state(replacement[0])

    def test_load_rejects_size_mismatch(self, backend: str) -> None:
        block = ColumnBlock(PIF_COLUMNS, backend, _random_config(ring(5), 1))
        with pytest.raises(ValueError, match="5-node block"):
            block.load(_random_config(ring(6), 1))

    def test_write_columns_keeps_unwritten_state_objects(
        self, backend: str
    ) -> None:
        net = ring(12)
        config = _random_config(net, 4)
        block = ColumnBlock(PIF_COLUMNS, backend, config)
        idx = _index(backend, [1, 5, 9])
        block.write_columns(idx, [("count", _index(backend, [7, 8, 9]))])
        after = block.materialize()
        assert [after[p].count for p in (1, 5, 9)] == [7, 8, 9]
        for p in (1, 5, 9):
            assert after[p] == config[p].replace(count=after[p].count)
        for p in set(net.nodes) - {1, 5, 9}:
            assert after[p] is config[p]

    def test_empty_write_columns_keeps_the_configuration(
        self, backend: str
    ) -> None:
        block = ColumnBlock(PIF_COLUMNS, backend, _random_config(ring(6), 2))
        first = block.materialize()
        empty = _index(backend, [])
        block.write_columns(empty, [("count", empty)])
        assert block.materialize() is first

    def test_many_writes_without_materialize_stay_exact(
        self, backend: str
    ) -> None:
        # More recorded writes than nodes collapse the stale lists into
        # a full decode; the result must still be exact.
        net = ring(5)
        block = ColumnBlock(PIF_COLUMNS, backend, _random_config(net, 3))
        for step in range(12):
            p = step % 5
            row = list(block.read_row(p))
            row[3] = step + 1
            block.write_row(p, row)
        after = block.materialize()
        assert [after[p].count for p in net.nodes] == [11, 12, 8, 9, 10]
        assert all(
            PIF_COLUMNS.encode_state(after[p]) == block.read_row(p)
            for p in net.nodes
        )


def _index(backend: str, values: list[int]):
    if backend == "numpy":
        import numpy as np

        return np.array(values, dtype=np.int64)
    return values


class TestDecodeMemo:
    def test_equal_rows_share_one_state(self) -> None:
        net = ring(8)
        clean = SnapPif.for_network(net).initial_configuration(net)
        block = ColumnBlock(PIF_COLUMNS, "pure", clean)
        row = block.read_row(3)
        for p in (2, 4, 6):
            block.write_row(p, row)
        after = block.materialize()
        assert after[2] is after[4] is after[6]
        assert after[2] == clean[3]

    def test_memo_never_grows_past_its_cap(self) -> None:
        from repro.columnar.schema import DECODE_MEMO_CAP, ColumnSchema

        schema = ColumnSchema(PifState, PIF_COLUMNS.fields)
        first = schema.decode_row((2, -1, 0, 1, 0))
        assert schema.decode_row((2, -1, 0, 1, 0)) is first
        for count in range(DECODE_MEMO_CAP + 10):
            schema.decode_row((0, 1, 1, count, 0))
            assert len(schema._memo) <= DECODE_MEMO_CAP

    def test_schema_names_are_computed_once(self) -> None:
        assert PIF_COLUMNS.names is PIF_COLUMNS.names


@pytest.mark.parametrize("backend", ACTIVE_BACKENDS)
class TestPayloadFields:
    """Object-valued payload columns: stored, gathered and decoded by
    reference, never encoded."""

    @staticmethod
    def _block(backend: str):
        from repro.core.payload import PAYLOAD_PIF_COLUMNS, PayloadSnapPif

        net = ring(6)
        protocol = PayloadSnapPif.for_network(net)
        config = protocol.random_configuration(net, Random(2))
        return ColumnBlock(PAYLOAD_PIF_COLUMNS, backend, config), config

    def test_payload_is_not_an_int_column(self, backend: str) -> None:
        block, config = self._block(backend)
        assert set(block.payload) == {"msg", "ack"}
        assert "msg" not in block.columns
        assert block.read_row(2) == PIF_COLUMNS.encode_state(config[2])
        assert block.materialize() is config

    def test_writes_keep_identity_and_decode_unhashable(
        self, backend: str
    ) -> None:
        block, config = self._block(backend)
        reports = [{p: ("report", p)} for p in range(6)]  # unhashable
        idx = [1, 3, 4]
        values = [reports[p] for p in idx]
        if backend == "numpy":
            import numpy as np

            from repro.columnar.backend import make_objects

            idx = np.array(idx, dtype=np.int64)
            values = make_objects(backend, values)
        block.write_columns(idx, [("ack", values)])
        after = block.materialize()
        for p in (1, 3, 4):
            assert after[p].ack is reports[p]
            assert after[p].msg is config[p].msg
            assert after[p].pif is config[p].pif
        for p in (0, 2, 5):
            assert after[p] is config[p]

    def test_gather_copies_references(self, backend: str) -> None:
        from repro.core.payload import Envelope

        block, _ = self._block(backend)
        envelope = Envelope("wave")
        block.write_row(0, block.read_row(0), (envelope, None))
        msg = block.payload["msg"]
        if backend == "numpy":
            import numpy as np

            gathered = msg[np.array([0, 0, 0])]
        else:
            gathered = [msg[q] for q in (0, 0, 0)]
        assert all(m is envelope for m in gathered)
        assert block.materialize()[0].msg is envelope

    def test_equal_payload_values_are_distinct_keys(
        self, backend: str
    ) -> None:
        # Equal but distinct payload objects must not share a decode:
        # envelopes are compared by identity.
        from repro.core.payload import PAYLOAD_PIF_COLUMNS

        row = (2, 1, 1, 1, 0)
        a = PAYLOAD_PIF_COLUMNS.decode_row(row, ({"x": 1}, None))
        b = PAYLOAD_PIF_COLUMNS.decode_row(row, ({"x": 1}, None))
        assert a == b and a is not b and a.msg is not b.msg
        assert PAYLOAD_PIF_COLUMNS.decode_row(row, (a.msg, None)) is a


class TestCSRIndex:
    def test_preserves_local_neighbor_order(self) -> None:
        net = by_name("random-dense", 10)
        csr = CSRIndex(net)
        for p in net.nodes:
            assert tuple(csr.neighbors(p)) == tuple(net.neighbors(p))
            assert csr.degree(p) == len(net.neighbors(p))

    def test_indptr_is_degree_prefix_sum(self) -> None:
        net = by_name("caterpillar", 8)
        csr = CSRIndex(net)
        assert csr.indptr[0] == 0
        assert csr.indptr[net.n] == len(csr.indices)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
    def test_as_numpy_matches_and_caches(self) -> None:
        csr = CSRIndex(ring(7))
        indptr, indices = csr.as_numpy()
        assert list(indptr) == list(csr.indptr)
        assert list(indices) == list(csr.indices)
        assert csr.as_numpy()[0] is indptr
