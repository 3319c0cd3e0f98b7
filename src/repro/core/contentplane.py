"""The content-plane kernel: every §3.3 strategy's costs in one array pass.

Fig. 11(b)/(c), Fig. 12 and the §3.3.3 cost triangle are all functions
of one thing: the output port each vantage router gives each address
in ``Addrs(d, t)``. :class:`ContentPlane` computes all of them together
in three steps:

1. **Intern** (once per measurement). The measurement's addresses are
   mapped to one sorted integer universe, and every name's
   :class:`~repro.workload.AddrsMatrix` nonzeros are concatenated into
   flat ``(row, address id)`` arrays. A row is one change point; each
   name's rows are contiguous and in time order, and each row carries
   its residence time in hours.
2. **Table** (once per router). Each distinct covering prefix is
   resolved once (:meth:`~repro.routing.VantagePoint.fib_best`) and
   the results are gathered into per-address ``port`` and integer
   ``rank`` arrays.
3. **Reduce** (once per router). One pass over the flat arrays yields
   the update count of every strategy, the flooding strategies'
   time-averaged copies and final table entries, and each name's
   hour-0 best port.

The results are exact, not approximations of the per-event replays
kept in ``tests/reference/``:

* *Best port.* An address's rank is the position of its route's
  :func:`~repro.routing.rank_key` among the router's distinct keys, so
  a row's minimum rank picks its top-ranked route. Equal keys imply
  equal next hops (the next hop is the key's final tiebreak), so the
  port of the minimum rank is ``best(FIB(R, d, t))``.
* *Flooding.* ``FIB(R, d, t)`` is a pure function of the addresses
  present: it is the row's set of distinct ``(row, port)`` pairs. The
  union strategy's port set grows exactly at the rows where a
  ``(name, port)`` pair occurs for the first time.
* *Copies.* Time-averaged copies are sums of integer hours times
  integer set sizes. They are kept as integers and divided once; the
  replays summed the same integers in floats, which is exact below
  2**53, so the quotient is the same float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .. import obs
from ..net import ContentName
from ..routing import RoutingOracle, VantagePoint, rank_key
from ..workload import require_numpy
from .displacement import covering_prefix_ids
from .strategies import ForwardingStrategy

np = require_numpy()

__all__ = ["ContentPlane", "RouterContent"]


@dataclass(frozen=True)
class RouterContent:
    """One router's content-plane results over one measurement."""

    router: str
    #: Mobility events that change the router's state, per strategy.
    updates: Dict[ForwardingStrategy, int]
    #: Flooding strategies: residence hours times port-set size,
    #: summed over every row.
    copy_hours: Dict[ForwardingStrategy, int]
    #: Flooding strategies: (name, port) entries held at the end.
    entries: Dict[ForwardingStrategy, int]
    #: Each name's best port at hour 0 (-1: no address is routed).
    first_port: "np.ndarray"


class ContentPlane:
    """One measurement's ``Addrs(d, t)`` membership in flat arrays.

    Build it with :meth:`of`, which memoizes it on the measurement;
    :meth:`for_routers` then memoizes each router's
    :class:`RouterContent`, so every content experiment of a World
    shares one intern step and one reduction per router.
    """

    def __init__(
        self,
        names: Sequence[ContentName],
        matrices: Sequence,
        total_hours: Sequence[int],
    ):
        self.names = list(names)
        rows = np.array([len(m.hours) for m in matrices], dtype=np.int64)
        #: Row offset of each name, plus the total row count at the end.
        self.row_start = np.concatenate([[0], np.cumsum(rows)]).astype(
            np.int64
        )
        num_rows = int(self.row_start[-1])
        self.num_events = num_rows - len(self.names)
        self.row_name = np.repeat(
            np.arange(len(self.names), dtype=np.int32), rows
        )
        #: False at each name's first row, True at every mobility event.
        self.is_event = np.ones(num_rows, dtype=bool)
        self.is_event[self.row_start[:-1]] = False

        hours = np.concatenate(
            [m.hours for m in matrices] + [np.zeros(0, dtype=np.int64)]
        )
        ends = np.empty_like(hours)
        ends[:-1] = hours[1:]
        ends[self.row_start[1:] - 1] = np.asarray(total_hours, dtype=np.int64)
        #: Hours each row's address set stays in place.
        self.residence = ends - hours
        self.total_hours = int(sum(total_hours))

        local = [
            np.array([a.value for a in m.addrs], dtype=np.int64)
            for m in matrices
        ]
        #: The sorted address universe; an address id indexes it.
        self.universe = np.unique(
            np.concatenate(local + [np.zeros(0, dtype=np.int64)])
        )
        sizes = [int(np.count_nonzero(m.membership)) for m in matrices]
        #: Membership nonzeros, sorted by row, filled in place.
        self.nz_row = np.empty(sum(sizes), dtype=np.int32)
        self.nz_addr = np.empty(sum(sizes), dtype=np.int32)
        at = 0
        for start, matrix, values, size in zip(
            self.row_start, matrices, local, sizes
        ):
            row, col = np.nonzero(matrix.membership)
            self.nz_row[at:at + size] = row + start
            self.nz_addr[at:at + size] = np.searchsorted(
                self.universe, values
            )[col]
            at += size
        count = np.bincount(self.nz_row, minlength=num_rows)
        self._nonempty = count > 0
        self._nz_start = (np.cumsum(count) - count)[self._nonempty]

        #: (topology, prefixes, per-address prefix id) of the last table.
        self._prefixes: Tuple = (None, [], None)
        #: (id(oracle), id(router)) -> (oracle, router, RouterContent);
        #: the objects are held so their ids stay unique.
        self._results: Dict[Tuple[int, int], Tuple] = {}

    @classmethod
    def of(cls, measurement) -> "ContentPlane":
        """The measurement's plane, interned on first use and memoized."""
        plane = getattr(measurement, "_content_plane", None)
        if plane is None:
            with obs.span("evaluator.batch.content.intern"):
                names = measurement.names()
                plane = cls(
                    names,
                    [measurement.matrix(name) for name in names],
                    [measurement.timeline(name).total_hours
                     for name in names],
                )
            obs.incr("evaluator.batch.content.addresses",
                     len(plane.universe))
            obs.incr("evaluator.batch.content.nonzeros",
                     len(plane.nz_row))
            measurement._content_plane = plane
        return plane

    def for_routers(
        self, routers: Sequence[VantagePoint], oracle: RoutingOracle
    ) -> List[RouterContent]:
        """Each router's results, reducing only routers not seen before."""
        missing = [
            r for r in routers
            if (id(oracle), id(r)) not in self._results
        ]
        if missing:
            with obs.span("evaluator.batch.content.reduce"):
                for router in missing:
                    port, rank = self.table(router, oracle)
                    self._results[(id(oracle), id(router))] = (
                        oracle, router, self.reduce(router.name, port, rank)
                    )
        return [self._results[(id(oracle), id(r))][2] for r in routers]

    def _prefix_ids(self, topology) -> Tuple[list, "np.ndarray"]:
        """Distinct covering prefixes, and each address's prefix id
        (-1 where no announced prefix covers it)."""
        if self._prefixes[0] is not topology:
            prefixes, pid = covering_prefix_ids(
                topology, self.universe.tolist()
            )
            self._prefixes = (topology, prefixes, pid)
        return self._prefixes[1], self._prefixes[2]

    def table(
        self, router: VantagePoint, oracle: RoutingOracle
    ) -> Tuple["np.ndarray", "np.ndarray"]:
        """Per-address ``(port, rank)`` at ``router``.

        ``port`` is the next hop of the address's FIB route (-1: no
        route); ``rank`` orders the routes by
        :func:`~repro.routing.rank_key`, lower winning.
        """
        prefixes, pid = self._prefix_ids(oracle.topology)
        routes = [router.fib_best(oracle, prefix) for prefix in prefixes]
        keys = sorted({rank_key(r) for r in routes if r is not None})
        rank_of = {key: i for i, key in enumerate(keys)}
        # A trailing sentinel entry, gathered by prefix id -1.
        prefix_port = np.array(
            [-1 if r is None else r.next_hop for r in routes] + [-1],
            dtype=np.int64,
        )
        prefix_rank = np.array(
            [len(keys) if r is None else rank_of[rank_key(r)]
             for r in routes] + [len(keys)],
            dtype=np.int64,
        )
        return prefix_port[pid], prefix_rank[pid]

    def reduce(
        self, router: str, port: "np.ndarray", rank: "np.ndarray"
    ) -> RouterContent:
        """Every strategy's costs from per-address ``port`` and ``rank``.

        ``port`` is -1 for an unrouted address, whose ``rank`` is
        ignored; ranks are non-negative integers, lower winning, and
        equal ranks must have equal ports.
        """
        num_rows = len(self.row_name)
        is_event = self.is_event
        routed = port >= 0

        # Best port: the port of each row's minimum rank.
        none_rank = int(rank[routed].max()) + 1 if routed.any() else 0
        addr_rank = np.where(routed, rank, none_rank).astype(np.int32)
        port_of_rank = np.full(none_rank + 1, -1, dtype=np.int64)
        port_of_rank[addr_rank[routed]] = port[routed]
        row_rank = np.full(num_rows, none_rank, dtype=np.int32)
        if len(self.nz_row):
            row_rank[self._nonempty] = np.minimum.reduceat(
                addr_rank[self.nz_addr], self._nz_start
            )
        row_port = port_of_rank[row_rank]
        best = int(np.count_nonzero(
            is_event[1:] & (row_port[1:] != row_port[:-1])
        ))
        first_port = row_port[self.row_start[:-1]].astype(np.int32)
        del addr_rank, row_rank, row_port

        # FIB(R, d, t) per row: its distinct (row, port) pairs, in
        # row-major order over compact port ids.
        ports = np.unique(port[routed])
        width = max(len(ports), 1)
        key_type = np.int32 if num_rows * width < 2 ** 31 else np.int64
        compact = np.searchsorted(ports, port).astype(key_type)
        keep = routed[self.nz_addr]
        pairs = self.nz_row[keep].astype(key_type)
        pairs *= width
        pairs += compact[self.nz_addr[keep]]
        # Sort and drop repeats: several times faster here than
        # np.unique, whose hash-based path numpy 2 takes for this call.
        pairs.sort()
        distinct = np.ones(len(pairs), dtype=bool)
        distinct[1:] = pairs[1:] != pairs[:-1]
        pairs = pairs[distinct]
        pair_row = pairs // width
        pair_port = pairs % width
        del keep, distinct, pairs
        size = np.bincount(pair_row, minlength=num_rows)
        prev_size = np.roll(size, 1)  # row 0 is never an event

        # Controlled flooding: a row differs from the previous row in
        # size, or, at equal size s, in some pair j against pair j - s.
        changed = is_event & (size != prev_size)
        same = np.nonzero((is_event & (size == prev_size))[pair_row])[0]
        differs = pair_port[same] != pair_port[same - size[pair_row[same]]]
        changed[pair_row[same[differs]]] = True
        flooding = int(np.count_nonzero(changed))
        del changed, same, differs

        # Union flooding: the port set grows where a (name, port) pair
        # first occurs; a name's union size is the running count.
        _, first = np.unique(
            self.row_name[pair_row].astype(np.int64) * width + pair_port,
            return_index=True,
        )
        grew = np.bincount(pair_row[first], minlength=num_rows)
        running = np.cumsum(grew)
        before = (running - grew)[self.row_start[:-1]]
        union_size = running - before[self.row_name]

        flood = ForwardingStrategy.CONTROLLED_FLOODING
        union = ForwardingStrategy.UNION_FLOODING
        return RouterContent(
            router=router,
            updates={
                ForwardingStrategy.BEST_PORT: best,
                flood: flooding,
                union: int(np.count_nonzero(is_event & (grew > 0))),
            },
            copy_hours={
                flood: int(np.dot(size, self.residence)),
                union: int(np.dot(union_size, self.residence)),
            },
            entries={
                flood: int(size[self.row_start[1:] - 1].sum()),
                union: len(first),
            },
            first_port=first_port,
        )
