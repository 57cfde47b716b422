"""The public entry points for running VQPy queries.

:class:`QuerySession` binds one video, a model zoo, and a planner
configuration::

    from repro import QuerySession
    from repro.videosim import datasets

    video = datasets.camera_clip("banff", duration_s=60)
    session = QuerySession(video)
    result = session.execute(RedCarQuery())

``execute_many`` compiles every query — basic, spatial, duration, and
temporal alike — into streams that advance together through **one** pass
over the video with one shared execution context; detector, tracker, and
property-model results are paid once per (model, frame).  This is the
paper's query-level computation reuse (§4.2, evaluated in §5.3 as
"VQPy-Opt"), now covering higher-order compositions as well.

:class:`MultiCameraSession` shards the same query set across several camera
feeds (e.g. the amber-alert chase crossing camera coverage areas) and merges
the per-feed results deterministically.
"""

from __future__ import annotations

import warnings
from contextlib import ExitStack
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.backend.crosscamera import (
    CrossCameraLinks,
    CrossCameraSequence,
    GlobalEvent,
    GlobalTimeline,
    ReidMatcher,
    TrackProfile,
    build_track_profiles,
    pair_cross_camera_events,
)
from repro.backend.executor import Executor
from repro.backend.plan import QueryPlan
from repro.backend.planner import Planner, PlannerConfig
from repro.backend.results import FeedFailure, MultiCameraResult, QueryResult
from repro.backend.runtime import ExecutionContext
from repro.common.clock import SimClock
from repro.common.config import ReidConfig
from repro.common.errors import ExecutionError, FeedFailedError, PlanError
from repro.frontend.higher_order import TemporalQuery
from repro.frontend.query import Query
from repro.frontend.registry import get_library_zoo
from repro.index.store import VideoIndexStore
from repro.models.zoo import ModelZoo
from repro.obs.core import DISABLED, Obs
from repro.obs.trace import Tracer
from repro.videosim.video import SyntheticVideo


class QuerySession:
    """Plans and executes queries against one video."""

    def __init__(
        self,
        video: SyntheticVideo,
        zoo: Optional[ModelZoo] = None,
        config: Optional[PlannerConfig] = None,
        index_store: Optional[VideoIndexStore] = None,
    ) -> None:
        self.video = video
        self.zoo = zoo or get_library_zoo()
        self.config = config or PlannerConfig()
        #: The persistent video index shared by this session's executions.
        #: ``index_store`` lets several sessions (the feeds of a
        #: MultiCameraSession, or successive sessions over one corpus)
        #: share a single store; otherwise an index config builds one
        #: from its path (None path = in-memory, process-lifetime).
        index_cfg = self.config.index
        if index_store is None and index_cfg is not None:
            index_store = VideoIndexStore(index_cfg.path)
        self.index_store: Optional[VideoIndexStore] = index_store
        self.planner = Planner(self.zoo, self.config, index_store=self.index_store)
        self.executor = Executor(self.config)
        #: The context of the most recent single-video execution.
        self.last_context: Optional[ExecutionContext] = None
        #: The MultiCameraSession behind the most recent execute_over call
        #: (exposes per-feed cost breakdowns); None after single-video runs.
        self.last_multi: Optional["MultiCameraSession"] = None
        #: Observability bundle (tracer and decision log) of the most
        #: recent execution; None unless ``PlannerConfig.obs`` was set.
        self.last_obs: Optional[Obs] = None

    # -- planning ---------------------------------------------------------------
    def plan(self, query: Query) -> QueryPlan:
        """Plan a query without executing it (useful for DAG inspection)."""
        if isinstance(query, TemporalQuery):
            raise PlanError(
                "TemporalQuery is executed as a composition of its sub-queries; "
                "plan the sub-queries individually to inspect their DAGs"
            )
        # A solo plan shares the scan with nobody: reset any batch context a
        # previous execute_many left on the cost model.
        self.planner.begin_batch([query])
        return self.planner.plan(query, self.video)

    def explain(self, query: Query) -> str:
        """A human-readable rendering of the chosen operator DAG."""
        return self.plan(query).describe()

    # -- execution ----------------------------------------------------------------
    def _new_context(self, clock: Optional[SimClock] = None) -> ExecutionContext:
        return ExecutionContext(
            self.video, self.zoo, clock=clock, reuse_enabled=self.config.enable_reuse
        )

    def execute(self, query: Query, clock: Optional[SimClock] = None) -> QueryResult:
        """Execute one query over the session's video (one streaming pass)."""
        return self.execute_many([query], clock=clock)[0]

    def execute_many(
        self,
        queries: Sequence[Query],
        clock: Optional[SimClock] = None,
        ensure_events: bool = False,
        obs: Optional[Obs] = None,
    ) -> List[QueryResult]:
        """Execute several queries in a single pass with shared computation.

        All queries — basic, spatial, duration, and temporal — compile to
        streams driven by one video scan over one shared execution context,
        so per-frame model results (detector, tracker, properties) are
        computed exactly once per (model, frame) across the whole batch.
        With ``ensure_events`` even bare basic queries group their matches
        into events during the scan (cross-camera linking needs them).
        ``obs`` makes the call one feed of a multi-camera batch: the feeds
        share that observability bundle, and the batch owns both the root
        span and the index save.  Standalone runs build their own bundle
        when ``PlannerConfig.obs`` is set and save the index themselves.
        """
        own_obs = obs is None
        if own_obs:
            obs = Obs.from_config(self.config.obs)
        self.last_obs = obs if obs.enabled else None
        ctx = self._new_context(clock)
        if self.index_store is not None:
            ctx.index = self.index_store.view(self.video, self.zoo, obs=obs)
        self.last_context = ctx
        self.last_multi = None
        queries = list(queries)
        with ExitStack() as scope:
            if own_obs:
                # A shared bundle's batch root is the multi-camera session's.
                scope.enter_context(
                    obs.tracer.span("execute-batch", clock=ctx.clock, queries=len(queries))
                )
            results = self.executor.execute_queries(
                queries, self.video, ctx, self.planner, ensure_events=ensure_events, obs=obs
            )
        if own_obs and self.index_store is not None:
            # Everything the scan learned is already in the store (writes
            # are a scan side effect); persist it for the next session.
            self.index_store.save()
        return results

    def execute_over(
        self,
        videos: Union[Mapping[str, SyntheticVideo], Sequence[SyntheticVideo]],
        queries: Sequence[Query],
        include_self: bool = True,
        max_workers: Optional[int] = None,
        start_offsets: Optional[Mapping[str, float]] = None,
    ) -> List[MultiCameraResult]:
        """Shard the query set across several feeds and merge the results.

        ``videos`` may be a name -> video mapping or a plain sequence (feeds
        are then named by their spec).  With ``include_self`` (the default)
        the session's own video comes first, ahead of the extra feeds.  Each
        feed gets its own execution context but performs the same
        single-pass batched execution as :meth:`execute_many`; the feeds
        run one after another, in order, on the calling thread.
        ``max_workers`` is deprecated and ignored.  ``start_offsets``
        (camera name -> seconds) places each feed on the shared wall clock
        for cross-camera linking.
        """
        if max_workers is not None:
            _warn_max_workers_ignored()
        feeds = _named_feeds(videos)
        if include_self:
            own = _unique_name(self.video.spec.name, feeds)
            feeds = {own: self.video, **feeds}
        multi = MultiCameraSession(
            feeds, zoo=self.zoo, config=self.config, start_offsets=start_offsets
        )
        results = multi.execute_many(queries)
        # Reporting follows the most recent execution: keep the multi session
        # reachable (per-feed costs) and stop pointing at a stale context.
        self.last_multi = multi
        self.last_context = None
        self.last_obs = multi.last_obs
        return results

    # -- reporting ---------------------------------------------------------------
    @property
    def last_scan_stats(self) -> Optional[Dict[str, object]]:
        """The scan scheduler's counters for the most recent single-video run.

        Includes the stride-sampling counters (``frames_deferred``,
        ``frames_interpolated``, ``frames_rescanned``, ``peak_stride``)
        alongside the gating/early-exit ones; None before any execution or
        after a multi-camera run (use ``last_multi`` for per-feed stats).
        """
        if self.last_context is None or self.last_context.scan_stats is None:
            return None
        return self.last_context.scan_stats.as_dict()

    @property
    def last_trace(self) -> Optional[Tracer]:
        """The span tracer of the most recent traced execution (else None).

        After :meth:`execute_over` this is the multi-camera session's shared
        tracer, so per-feed scans show up as one lane per feed under one
        ``execute-batch`` root.
        """
        if self.last_obs is None:
            return None
        return self.last_obs.tracer

    def cost_breakdown(self) -> Dict[str, float]:
        """Virtual-ms breakdown (by model/operator) of the last execution.

        After :meth:`execute_over` this is the per-account sum across all
        feeds; ``last_multi.cost_breakdown()`` has the per-feed split.
        """
        if self.last_multi is not None:
            merged: Dict[str, float] = {}
            for breakdown in self.last_multi.cost_breakdown().values():
                for account, ms in breakdown.items():
                    merged[account] = merged.get(account, 0.0) + ms
            return dict(sorted(merged.items(), key=lambda kv: -kv[1]))
        if self.last_context is None:
            return {}
        return self.last_context.clock.breakdown()


class MultiCameraSession:
    """Runs the same query set over several camera feeds and merges results.

    One :class:`QuerySession` is kept per feed, all sharing the same model
    zoo and planner configuration; each feed's batch still executes as one
    streaming pass.  The feeds run one after another, in insertion order,
    on the calling thread.  Every feed has its own execution context,
    simulated clock, and (fresh) model instances, so a feed's results do
    not depend on the feeds before it, and results are merged in feed
    insertion order.  Under the interpreter lock a thread per feed would
    only add switching: the scans are Python computation, not I/O.
    ``max_workers`` is deprecated and ignored.

    With ``PlannerConfig.reid`` set (:class:`ReidConfig`), every
    execution additionally links the feeds' tracks into global identities
    (:meth:`link_tracks`) and aligns their events on a shared wall clock
    built from each feed's frame rate and ``start_offsets`` — unlocking
    ``global_tracks()`` / ``global_events()`` on the merged results and the
    cross-camera temporal operator (:meth:`execute_sequence`).  Linking runs
    after every feed's scan, in feed insertion order, so the identity
    assignment is deterministic.
    """

    def __init__(
        self,
        videos: Union[Mapping[str, SyntheticVideo], Sequence[SyntheticVideo]],
        zoo: Optional[ModelZoo] = None,
        config: Optional[PlannerConfig] = None,
        max_workers: Optional[int] = None,
        start_offsets: Optional[Mapping[str, float]] = None,
    ) -> None:
        if max_workers is not None:
            _warn_max_workers_ignored()
        feeds = _named_feeds(videos)
        if not feeds:
            raise ValueError("MultiCameraSession needs at least one video feed")
        self.zoo = zoo or get_library_zoo()
        self.config = config or PlannerConfig()
        #: One persistent index shared by every feed, saved once per
        #: execution after the feeds have run; None when the video index is
        #: disabled.
        index_cfg = self.config.index
        self.index_store = None if index_cfg is None else VideoIndexStore(index_cfg.path)
        self.sessions: Dict[str, QuerySession] = {
            name: QuerySession(
                video, zoo=self.zoo, config=self.config, index_store=self.index_store
            )
            for name, video in feeds.items()
        }
        offsets = dict(start_offsets or {})
        unknown = set(offsets) - set(self.sessions)
        if unknown:
            raise ValueError(f"start offsets for unknown feeds: {sorted(unknown)}")
        #: Camera name -> wall-clock second its frame 0 was captured at.
        self.start_offsets: Dict[str, float] = {
            name: float(offsets.get(name, 0.0)) for name in self.sessions
        }
        #: Clock charged for cross-camera work (embedding cache misses and
        #: the matcher itself); separate from the per-feed scan clocks.
        self.link_clock = SimClock()
        #: The identity links of the most recent execution (None until a
        #: re-id-enabled run happens).
        self.last_links: Optional[CrossCameraLinks] = None
        #: Observability bundle shared by every feed of the most recent
        #: execution; None unless ``PlannerConfig.obs`` was set.
        self.last_obs: Optional[Obs] = None
        #: Feed alias -> FeedFailure for feeds isolated in the most recent
        #: execution (fault tolerance only; empty when every feed survived).
        self.last_feed_failures: Dict[str, FeedFailure] = {}

    @property
    def cameras(self) -> List[str]:
        return list(self.sessions)

    def timeline(self) -> GlobalTimeline:
        """The shared wall-clock axis the feeds' events are aligned on (with
        re-id off, skewed by the :class:`ReidConfig` default)."""
        return GlobalTimeline(
            {name: session.video.fps for name, session in self.sessions.items()},
            self.start_offsets,
            max_clock_skew_s=(self.config.reid or ReidConfig()).max_clock_skew_s,
        )

    def execute(self, query: Query) -> MultiCameraResult:
        """Execute one query across every feed."""
        return self.execute_many([query])[0]

    def execute_many(self, queries: Sequence[Query]) -> List[MultiCameraResult]:
        """Execute a query batch across every feed (one pass per feed, in order).

        When cross-camera re-id is enabled the feeds' tracks are linked
        after the scans complete, and every merged result carries the
        identity links plus the wall-clock timeline (``global_tracks()``,
        wall-clock-ordered ``merged_events()``, ``global_events()``).
        """
        queries = list(queries)
        reid_enabled = self.config.reid is not None
        obs = Obs.from_config(self.config.obs)
        self.last_obs = obs if obs.enabled else None
        # The batch root is wall-clock only: there is no single virtual
        # clock spanning the feeds (each feed owns its own SimClock).
        with obs.tracer.span("execute-batch", feeds=len(self.sessions), queries=len(queries)):
            return self._execute_batch(queries, reid_enabled, obs)

    def _execute_batch(self, queries, reid_enabled, obs):
        merged = [MultiCameraResult(query_name=q.query_name) for q in queries]
        names = list(self.sessions)
        # Settle *every* feed before deciding the batch's fate: a feed that
        # fails must neither stop the feeds after it nor discard the results
        # the surviving feeds already produced.
        outcomes: Dict[str, List[QueryResult]] = {}
        failures: Dict[str, Exception] = {}
        try:
            for name in names:
                try:
                    outcomes[name] = self._run_feed(name, queries, reid_enabled, obs)
                except Exception as exc:
                    failures[name] = exc
            self.last_feed_failures = self._settle_failures(names, failures, outcomes)
        finally:
            # One save for every feed's writes, also when the batch fails.
            if self.index_store is not None:
                self.index_store.save()
        for name in names:
            if name not in outcomes:
                continue
            for result, holder in zip(outcomes[name], merged):
                holder.per_camera[name] = result
        for holder in merged:
            holder.feed_failures = dict(self.last_feed_failures)
        if reid_enabled:
            links = self.link_tracks()
            timeline = self.timeline()
            for holder in merged:
                holder.links = links
                holder.timeline = timeline
        return merged

    def _settle_failures(
        self,
        names: Sequence[str],
        failures: Dict[str, Exception],
        outcomes: Dict[str, List[QueryResult]],
    ) -> Dict[str, FeedFailure]:
        """Decide the batch's fate once every feed has settled.

        With fault tolerance on, feed deaths (:class:`FeedFailedError`) are
        *isolated*: the dead feeds become structured
        :class:`~repro.backend.results.FeedFailure` statuses and the
        surviving feeds' results still merge — unless every feed died, which
        leaves nothing to return.  Everything else (fault tolerance off, or
        a non-feed-death error such as an exhausted crash-resume budget)
        aborts the batch with one :class:`ExecutionError` naming every
        failed feed and carrying the survivors' results.
        """
        if not failures:
            return {}
        fault_cfg = self.config.faults
        isolate = (
            fault_cfg is not None
            and all(isinstance(exc, FeedFailedError) for exc in failures.values())
            and len(failures) < len(names)
        )
        if isolate:
            return {
                name: FeedFailure(
                    feed=name,
                    error=str(exc),
                    frame_id=getattr(exc, "frame_id", None),
                )
                for name, exc in failures.items()
            }
        failed = ", ".join(repr(name) for name in names if name in failures)
        raise ExecutionError(
            f"feed(s) {failed} failed during multi-camera execution: "
            f"{next(iter(failures.values()))}",
            failed_feeds=failures,
            partial_results=outcomes,
        )

    def _run_feed(self, name, queries, reid_enabled, obs):
        """One feed's batch execution, traced as its own lane."""
        session = self.sessions[name]
        with obs.tracer.span("feed-scan", lane=name, feed=name):
            return session.execute_many(queries, ensure_events=reid_enabled, obs=obs)

    # -- cross-camera re-identification -----------------------------------------
    def link_tracks(self) -> CrossCameraLinks:
        """Re-identify the most recent execution's tracks across all feeds.

        Embeddings are reused from the object-level cache wherever a feed's
        pipelines already computed the ``feature_vector`` intrinsic; cache
        misses invoke the re-id model once per track on its last *real*
        detection (interpolation-seeded frames never contribute sources).
        All cross-camera work — embedding misses and the matcher — is
        charged to :attr:`link_clock`, which is reset here so it always
        reports the most recent link run (matching the per-feed clocks,
        which are fresh per execution).
        """
        self.link_clock.reset()
        obs = self.last_obs or DISABLED
        with obs.tracer.span("reid-link", clock=self.link_clock, feeds=len(self.sessions)):
            return self._link_tracks(obs)

    def _link_tracks(self, obs: Obs) -> CrossCameraLinks:
        # With re-id off, an explicit link_tracks() uses the defaults.
        reid_cfg = self.config.reid or ReidConfig()
        model = self.zoo.get(reid_cfg.reid_model)
        profiles: Dict[str, List[TrackProfile]] = {}
        for name, session in self.sessions.items():
            if name in self.last_feed_failures:
                # An isolated dead feed has only a partial context; its
                # tracks are not linkable observations.
                continue
            ctx = session.last_context
            if ctx is None:
                raise ExecutionError(
                    f"link_tracks needs a prior execution, but feed {name!r} has not run yet"
                )
            profiles[name] = build_track_profiles(
                name, ctx, reid_cfg, model, clock=self.link_clock, obs=obs
            )
        matcher = ReidMatcher(reid_cfg, clock=self.link_clock, obs=obs)
        links = matcher.link(profiles)
        self.last_links = links
        if self.index_store is not None:
            # Linking may have embedded tracks the per-feed scans did not;
            # persist those embeddings for the next session too.
            self.index_store.save()
        return links

    def execute_sequence(self, sequence: CrossCameraSequence) -> List[GlobalEvent]:
        """Run the cross-camera temporal operator over all feeds.

        Both hops execute through the ordinary streaming machinery (the
        whole per-feed batch is still one adaptive scan); the resulting
        events are then paired across cameras on the wall clock, requiring
        a shared global identity unless the sequence disabled that.
        Requires ``PlannerConfig.reid``.
        """
        if self.config.reid is None:
            raise ExecutionError(
                "execute_sequence needs cross-camera re-identification: enable it "
                "with PlannerConfig(reid=ReidConfig())"
            )
        merged = self.execute_many(sequence.queries)
        first = merged[0]
        second = merged[-1]
        assert first.links is not None and first.timeline is not None
        return pair_cross_camera_events(
            first.merged_events(),
            second.merged_events(),
            first.links,
            first.timeline,
            sequence,
        )

    @property
    def last_scan_stats(self) -> Optional[Dict[str, Optional[Dict[str, object]]]]:
        """Per-feed scan-scheduler counters for the most recent execution.

        Keyed by feed alias (mirroring ``QuerySession.last_scan_stats``, one
        dict per feed); None before any feed has executed.
        """
        stats = {name: session.last_scan_stats for name, session in self.sessions.items()}
        if all(value is None for value in stats.values()):
            return None
        return stats

    def cost_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Per-camera virtual-ms breakdown of the last execution.

        Cross-camera work (embedding cache misses, the re-id matcher) is
        reported under the synthetic ``"<cross-camera>"`` feed when any was
        charged.
        """
        out = {name: session.cost_breakdown() for name, session in self.sessions.items()}
        if self.link_clock.elapsed_ms > 0:
            out["<cross-camera>"] = self.link_clock.breakdown()
        return out


def _warn_max_workers_ignored() -> None:
    warnings.warn(
        "max_workers is deprecated and ignored: the feeds of a multi-camera "
        "batch run one after another on the calling thread",
        DeprecationWarning,
        stacklevel=3,
    )


def _named_feeds(
    videos: Union[Mapping[str, SyntheticVideo], Sequence[SyntheticVideo]],
) -> Dict[str, SyntheticVideo]:
    """Normalise a feed collection to an ordered name -> video mapping.

    Duplicate basenames are disambiguated with ``#2``/``#3``/… suffixes.
    Synthesized aliases also avoid every *natural* spec name in the
    collection: in ``[cam, cam, cam#2]`` the second ``cam`` becomes
    ``cam#3``, never ``cam#2`` — an alias must not shadow a real feed's
    name, or ``result.camera("cam#2")`` would address the wrong video.
    """
    if isinstance(videos, Mapping):
        return dict(videos)
    videos = list(videos)
    reserved = {video.spec.name for video in videos}
    feeds: Dict[str, SyntheticVideo] = {}
    for video in videos:
        base = video.spec.name
        name = base if base not in feeds else _unique_name(base, feeds, reserved)
        feeds[name] = video
    return feeds


def _unique_name(
    base: str,
    taken: Mapping[str, SyntheticVideo],
    reserved: Optional[set] = None,
) -> str:
    """A name not colliding with ``taken`` keys nor the ``reserved`` names."""
    reserved = reserved or set()
    if base not in taken and base not in reserved:
        return base
    suffix = 2
    while f"{base}#{suffix}" in taken or f"{base}#{suffix}" in reserved:
        suffix += 1
    return f"{base}#{suffix}"
