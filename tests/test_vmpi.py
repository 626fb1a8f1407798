"""Unit tests for the virtual-MPI authoring API and its patterns."""

import pytest

from repro.apps import vmpi
from repro.apps.vmpi import _grid_dims
from repro.netsim.simulator import MpiSimulator
from repro.traces.records import (
    CollectiveRecord,
    ComputeBurst,
    IrecvRecord,
    WaitallRecord,
)
from repro.traces.columnar import ColumnarTrace


class TestConstructors:
    def test_compute(self):
        rec = vmpi.compute(0.5, phase="x", beta=0.2)
        assert rec == ComputeBurst(0.5, phase="x", beta=0.2)

    def test_collectives_map_to_records(self):
        assert vmpi.allreduce(8) == CollectiveRecord("allreduce", 8)
        assert vmpi.bcast(16, root=3) == CollectiveRecord("bcast", 16, 3)
        assert vmpi.barrier() == CollectiveRecord("barrier")
        assert vmpi.alltoall(4) == CollectiveRecord("alltoall", 4)
        assert vmpi.allgather(4) == CollectiveRecord("allgather", 4)
        assert vmpi.gather(4, 1) == CollectiveRecord("gather", 4, 1)
        assert vmpi.scatter(4, 1) == CollectiveRecord("scatter", 4, 1)
        assert vmpi.reduce(4, 2) == CollectiveRecord("reduce", 4, 2)


class TestExchange:
    def test_structure_irecv_isend_waitall(self):
        records = list(vmpi.exchange(0, [1, 2], nbytes=64))
        kinds = [r.kind for r in records]
        assert kinds == ["irecv", "irecv", "isend", "isend", "waitall"]
        waitall = records[-1]
        assert isinstance(waitall, WaitallRecord)
        assert len(waitall.requests) == 4

    def test_self_partner_filtered(self):
        records = list(vmpi.exchange(1, [0, 1, 2], nbytes=8))
        partners = {r.src for r in records if isinstance(r, IrecvRecord)}
        assert partners == {0, 2}

    def test_empty_partner_list_yields_nothing(self):
        assert list(vmpi.exchange(0, [], nbytes=8)) == []

    def test_request_ids_unique(self):
        records = list(vmpi.exchange(0, [1, 2, 3], nbytes=8))
        reqs = [r.request for r in records if hasattr(r, "request")]
        assert len(reqs) == len(set(reqs))


class TestHalo1d:
    def test_interior_rank_two_partners(self):
        recs = list(vmpi.halo_exchange_1d(2, 5, nbytes=8))
        srcs = {r.src for r in recs if isinstance(r, IrecvRecord)}
        assert srcs == {1, 3}

    def test_edge_rank_one_partner_non_periodic(self):
        recs = list(vmpi.halo_exchange_1d(0, 5, nbytes=8))
        srcs = {r.src for r in recs if isinstance(r, IrecvRecord)}
        assert srcs == {1}

    def test_periodic_wraps(self):
        recs = list(vmpi.halo_exchange_1d(0, 5, nbytes=8, periodic=True))
        srcs = {r.src for r in recs if isinstance(r, IrecvRecord)}
        assert srcs == {1, 4}

    @pytest.mark.parametrize("nproc", [2, 3, 8])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_world_runs_without_deadlock(self, nproc, periodic):
        programs = [
            list(vmpi.halo_exchange_1d(r, nproc, nbytes=8, periodic=periodic))
            for r in range(nproc)
        ]
        result = MpiSimulator().run(programs)
        assert result.execution_time >= 0.0


class TestHalo2d:
    def test_grid_dims_most_square(self):
        assert _grid_dims(16) == (4, 4)
        assert _grid_dims(12) == (3, 4)
        assert _grid_dims(7) == (1, 7)

    def test_corner_rank_two_partners(self):
        recs = list(vmpi.halo_exchange_2d(0, 16, nbytes=8))
        srcs = {r.src for r in recs if isinstance(r, IrecvRecord)}
        assert srcs == {1, 4}

    def test_interior_rank_four_partners(self):
        recs = list(vmpi.halo_exchange_2d(5, 16, nbytes=8))
        srcs = {r.src for r in recs if isinstance(r, IrecvRecord)}
        assert srcs == {1, 4, 6, 9}

    @pytest.mark.parametrize("nproc", [4, 6, 16])
    def test_world_runs_without_deadlock(self, nproc):
        programs = [
            list(vmpi.halo_exchange_2d(r, nproc, nbytes=8)) for r in range(nproc)
        ]
        result = MpiSimulator().run(programs)
        assert result.execution_time >= 0.0

    def test_periodic_2d_consistent(self):
        nproc = 9
        programs = [
            list(vmpi.halo_exchange_2d(r, nproc, nbytes=8, periodic=True))
            for r in range(nproc)
        ]
        MpiSimulator().run(programs)  # must not deadlock

    def test_symmetry_makes_valid_trace(self):
        nproc = 12
        trace = ColumnarTrace.from_streams(
            [list(vmpi.halo_exchange_2d(r, nproc, nbytes=8)) for r in range(nproc)]
        )
        trace.validate()
