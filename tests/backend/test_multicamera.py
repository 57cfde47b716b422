"""Tests for the multi-video batch API (MultiCameraSession / execute_over)."""

import threading

import pytest

from repro.backend.planner import PlannerConfig
from repro.backend.results import Event, MultiCameraResult, QueryResult
from repro.backend.session import MultiCameraSession, QuerySession, _named_feeds
from repro.common.config import IndexConfig, ReidConfig, VideoSpec
from repro.frontend.builtin import Car
from repro.frontend.higher_order import DurationQuery
from repro.frontend.query import Query, count_distinct
from repro.videosim.datasets import camera_clip
from repro.videosim.video import SyntheticVideo


class RedCarQuery(Query):
    """The quickstart/amber-alert style example query."""

    def __init__(self):
        self.car = Car("car")

    def frame_constraint(self):
        return (self.car.score > 0.6) & (self.car.color == "red")

    def frame_output(self):
        return (self.car.track_id, self.car.bbox)


class CarCountQuery(Query):
    def __init__(self):
        self.car = Car("car")

    def video_constraint(self):
        return self.car.score > 0.5

    def video_output(self):
        return (count_distinct(self.car.track_id, label="num_cars"),)


@pytest.fixture(scope="module")
def feeds():
    return {
        "jackson": camera_clip("jackson", duration_s=5, seed=2),
        "banff": camera_clip("banff", duration_s=5, seed=1),
    }


class TestMultiCameraSession:
    def test_example_query_across_two_feeds(self, feeds, zoo, fast_config):
        multi = MultiCameraSession(feeds, zoo=zoo, config=fast_config)
        merged = multi.execute(RedCarQuery())
        assert isinstance(merged, MultiCameraResult)
        assert merged.cameras == ["jackson", "banff"]
        for name, video in feeds.items():
            assert merged.camera(name).num_frames_processed == video.num_frames
        assert merged.num_frames_processed == sum(v.num_frames for v in feeds.values())
        assert merged.total_ms == pytest.approx(
            sum(r.total_ms for _, r in merged)
        )

    def test_per_feed_results_match_single_sessions(self, feeds, zoo, fast_config):
        merged = MultiCameraSession(feeds, zoo=zoo, config=fast_config).execute(RedCarQuery())
        for name, video in feeds.items():
            solo = QuerySession(video, zoo=zoo, config=fast_config).execute(RedCarQuery())
            assert merged.camera(name).matched_frames == solo.matched_frames
            assert merged.camera(name).num_matches == solo.num_matches

    def test_merge_is_deterministic(self, feeds, zoo, fast_config):
        first = MultiCameraSession(feeds, zoo=zoo, config=fast_config).execute(RedCarQuery())
        second = MultiCameraSession(feeds, zoo=zoo, config=fast_config).execute(RedCarQuery())
        assert first.matched_frames() == second.matched_frames()
        assert first.merged_events() == second.merged_events()
        assert first.merged_aggregates() == second.merged_aggregates()

    def test_max_workers_warns_and_changes_nothing(self, feeds, zoo, fast_config, tiny_video):
        plain = MultiCameraSession(feeds, zoo=zoo, config=fast_config).execute(RedCarQuery())
        for workers in (1, 4):
            with pytest.warns(DeprecationWarning, match="max_workers"):
                multi = MultiCameraSession(feeds, zoo=zoo, config=fast_config, max_workers=workers)
            merged = multi.execute(RedCarQuery())
            for name in feeds:
                assert merged.camera(name) == plain.camera(name)
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        want = session.execute_over(feeds, [RedCarQuery()])
        with pytest.warns(DeprecationWarning, match="max_workers"):
            got = session.execute_over(feeds, [RedCarQuery()], max_workers=2)
        assert [dict(m.per_camera) for m in got] == [dict(m.per_camera) for m in want]

    def test_execution_starts_no_thread(self, feeds, zoo, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        config = PlannerConfig(
            profile_plans=False, reid=ReidConfig(), index=IndexConfig()
        )
        multi = MultiCameraSession(feeds, zoo=zoo, config=config)
        merged = multi.execute(RedCarQuery())
        assert merged.cameras == list(feeds)
        assert started == []

    def test_count_aggregates_sum_across_feeds(self, feeds, zoo, fast_config):
        merged = MultiCameraSession(feeds, zoo=zoo, config=fast_config).execute(CarCountQuery())
        per_feed = [r.aggregates["num_cars"] for _, r in merged]
        assert merged.merged_aggregates()["num_cars"] == sum(per_feed)
        assert all(count > 0 for count in per_feed)

    def test_sequence_feeds_get_unique_names(self, zoo, fast_config):
        videos = [camera_clip("banff", duration_s=5, seed=1), camera_clip("banff", duration_s=5, seed=4)]
        multi = MultiCameraSession(videos, zoo=zoo, config=fast_config)
        assert multi.cameras == ["banff", "banff#2"]

    def test_execute_many_returns_one_merge_per_query(self, feeds, zoo, fast_config):
        multi = MultiCameraSession(feeds, zoo=zoo, config=fast_config)
        merged = multi.execute_many([RedCarQuery(), CarCountQuery()])
        assert [m.query_name for m in merged] == ["RedCarQuery", "CarCountQuery"]
        assert all(m.cameras == ["jackson", "banff"] for m in merged)

    def test_empty_feed_set_rejected(self, zoo, fast_config):
        with pytest.raises(ValueError):
            MultiCameraSession({}, zoo=zoo, config=fast_config)

    def test_unknown_camera_raises(self, feeds, zoo, fast_config):
        merged = MultiCameraSession(feeds, zoo=zoo, config=fast_config).execute(RedCarQuery())
        with pytest.raises(KeyError):
            merged.camera("nonexistent")


class TestMergedViews:
    """Direct coverage of MultiCameraResult's merged views (previously only
    exercised indirectly through determinism checks)."""

    @staticmethod
    def _feed_result(frames=0, matched=(), events=(), breakdown=None):
        result = QueryResult(query_name="q")
        result.num_frames_processed = frames
        result.matched_frames = list(matched)
        result.events = list(events)
        result.cost_breakdown = dict(breakdown or {})
        return result

    def test_merged_events_orders_by_frame_then_camera(self):
        early = Event(start_frame=5, end_frame=9)
        tie_a = Event(start_frame=10, end_frame=12)
        tie_b = Event(start_frame=10, end_frame=12)
        late = Event(start_frame=20, end_frame=25)
        merged = MultiCameraResult(
            query_name="q",
            per_camera={
                "zebra": self._feed_result(events=[tie_b, early]),
                "alpha": self._feed_result(events=[late, tie_a]),
            },
        )
        # Sorted by (start, end); the (10, 12) tie breaks by camera name.
        assert merged.merged_events() == [
            ("zebra", early),
            ("alpha", tie_a),
            ("zebra", tie_b),
            ("alpha", late),
        ]

    def test_matched_frames_keeps_feed_local_ids_per_camera(self):
        merged = MultiCameraResult(
            query_name="q",
            per_camera={
                "a": self._feed_result(frames=100, matched=[3, 7]),
                "b": self._feed_result(frames=50, matched=[7, 9]),
            },
        )
        assert merged.matched_frames() == {"a": [3, 7], "b": [7, 9]}
        # The view is a copy: mutating it must not corrupt the result.
        merged.matched_frames()["a"].append(99)
        assert merged.matched_frames() == {"a": [3, 7], "b": [7, 9]}

    def test_cost_breakdown_sums_accounts_across_feeds(self):
        merged = MultiCameraResult(
            query_name="q",
            per_camera={
                "a": self._feed_result(breakdown={"yolox": 100.0, "color_detect": 10.0}),
                "b": self._feed_result(breakdown={"yolox": 50.0, "kalman_tracker": 5.0}),
            },
        )
        breakdown = merged.cost_breakdown()
        assert breakdown["yolox"] == pytest.approx(150.0)
        assert breakdown["color_detect"] == pytest.approx(10.0)
        assert breakdown["kalman_tracker"] == pytest.approx(5.0)
        # Sorted by descending cost, like every other breakdown view.
        assert list(breakdown) == sorted(breakdown, key=lambda k: -breakdown[k])

    def test_merged_views_from_a_real_execution(self, feeds, zoo, fast_config):
        multi = MultiCameraSession(feeds, zoo=zoo, config=fast_config)
        merged = multi.execute(DurationQuery(RedCarQuery(), duration_s=1.0))
        tagged = merged.merged_events()
        # Every event is tagged with a real camera and appears in its feed's
        # own result; the merge is (start, end, camera)-ordered.
        keys = [(e.start_frame, e.end_frame, c) for c, e in tagged]
        assert keys == sorted(keys)
        for camera, event in tagged:
            assert event in merged.camera(camera).events
        assert set(merged.matched_frames()) == set(feeds)
        for camera, frames in merged.matched_frames().items():
            assert frames == merged.camera(camera).matched_frames
        # The merged breakdown sums the per-feed scan accounting.
        breakdown = merged.cost_breakdown()
        assert breakdown["yolox"] == pytest.approx(
            sum(merged.camera(c).cost_breakdown.get("yolox", 0.0) for c in merged.cameras)
        )


class TestFeedNaming:
    """Regression tests for the alias-shadowing bug in feed naming."""

    @staticmethod
    def _video(name):
        return SyntheticVideo(
            VideoSpec(name, fps=10, width=64, height=48, duration_s=1), [], seed=0
        )

    def test_alias_never_shadows_a_natural_name(self):
        """[cam, cam, cam#2]: the second 'cam' must NOT take the alias
        'cam#2' — that name belongs to the third feed, and stealing it made
        result.camera('cam#2') address the wrong video."""
        cam1, cam2, real = self._video("cam"), self._video("cam"), self._video("cam#2")
        feeds = _named_feeds([cam1, cam2, real])
        assert list(feeds) == ["cam", "cam#3", "cam#2"]
        assert feeds["cam#2"] is real
        assert feeds["cam#3"] is cam2

    def test_session_addresses_the_right_video(self, zoo, fast_config):
        videos = [
            camera_clip("banff", duration_s=5, seed=1),
            camera_clip("banff", duration_s=5, seed=4),
            camera_clip("banff", duration_s=5, seed=8),
        ]
        # Rename the third feed to collide with the would-be alias.
        videos[2].spec = VideoSpec("banff#2", 15, 1280, 720, 5)
        multi = MultiCameraSession(videos, zoo=zoo, config=fast_config)
        assert multi.cameras == ["banff", "banff#3", "banff#2"]
        assert multi.sessions["banff#2"].video is videos[2]
        assert multi.sessions["banff#3"].video is videos[1]

    def test_plain_duplicates_still_get_dense_suffixes(self):
        feeds = _named_feeds([self._video("cam"), self._video("cam"), self._video("cam")])
        assert list(feeds) == ["cam", "cam#2", "cam#3"]


class TestMergedAggregates:
    @staticmethod
    def _feed_result(frames, aggregates, kinds):
        from repro.backend.results import QueryResult

        result = QueryResult(query_name="q")
        result.num_frames_processed = frames
        result.aggregates = dict(aggregates)
        result.aggregate_kinds = dict(kinds)
        return result

    def test_max_per_frame_takes_the_maximum(self):
        merged = MultiCameraResult(
            query_name="q",
            per_camera={
                "a": self._feed_result(100, {"peak": 3}, {"peak": "max_per_frame"}),
                "b": self._feed_result(100, {"peak": 2}, {"peak": "max_per_frame"}),
            },
        )
        assert merged.merged_aggregates()["peak"] == 3

    def test_counts_sum_and_averages_weight_by_frames(self):
        merged = MultiCameraResult(
            query_name="q",
            per_camera={
                "a": self._feed_result(
                    100,
                    {"n": 4, "avg": 2.0, "plates": ["x"]},
                    {"n": "count_distinct", "avg": "average_per_frame", "plates": "collect"},
                ),
                "b": self._feed_result(
                    300,
                    {"n": 1, "avg": 6.0, "plates": ["y", "z"]},
                    {"n": "count_distinct", "avg": "average_per_frame", "plates": "collect"},
                ),
            },
        )
        out = merged.merged_aggregates()
        assert out["n"] == 5
        assert out["avg"] == pytest.approx((2.0 * 100 + 6.0 * 300) / 400)
        assert out["plates"] == ["x", "y", "z"]


class TestExecuteOver:
    def test_session_video_runs_first_by_default(self, tiny_video, feeds, zoo, fast_config):
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        merged = session.execute_over(feeds, [RedCarQuery()])
        assert len(merged) == 1
        assert merged[0].cameras == ["tiny", "jackson", "banff"]
        # The session's own feed produced the same result it would alone.
        solo = QuerySession(tiny_video, zoo=zoo, config=fast_config).execute(RedCarQuery())
        assert merged[0].camera("tiny").matched_frames == solo.matched_frames

    def test_exclude_own_video(self, tiny_video, feeds, zoo, fast_config):
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        merged = session.execute_over(feeds, [RedCarQuery()], include_self=False)
        assert merged[0].cameras == ["jackson", "banff"]

    def test_name_collision_with_own_video(self, zoo, fast_config):
        own = camera_clip("banff", duration_s=5, seed=9)
        session = QuerySession(own, zoo=zoo, config=fast_config)
        merged = session.execute_over([camera_clip("banff", duration_s=5, seed=1)], [RedCarQuery()])
        assert merged[0].cameras == ["banff#2", "banff"]

    def test_cost_breakdown_tracks_the_multicamera_run(self, tiny_video, feeds, zoo, fast_config):
        session = QuerySession(tiny_video, zoo=zoo, config=fast_config)
        session.execute(RedCarQuery())
        single = session.cost_breakdown()
        session.execute_over(feeds, [RedCarQuery()])
        multi = session.cost_breakdown()
        # The breakdown follows the execute_over run (all feeds summed), not
        # the stale single-video context.
        assert multi != single
        per_feed = session.last_multi.cost_breakdown()
        assert set(per_feed) == {"tiny", "jackson", "banff"}
        assert multi["yolox"] == pytest.approx(sum(bd.get("yolox", 0.0) for bd in per_feed.values()))
        # A later single-video run flips reporting back.
        session.execute(RedCarQuery())
        assert session.last_multi is None
        assert session.cost_breakdown() == single


class TestFeedFailureSettling:
    """Regression tests for the future-settling bug: a failing feed used to
    re-raise immediately, abandoning in-flight siblings and discarding the
    results surviving feeds had already produced."""

    @staticmethod
    def _arm(multi, fail_feed, ran, monkeypatch):
        for name, session in multi.sessions.items():
            if name == fail_feed:
                def boom(*a, **kw):
                    raise RuntimeError("injected feed failure")

                monkeypatch.setattr(session, "execute_many", boom)
            else:
                real = session.execute_many

                def tracked(*a, _real=real, _name=name, **kw):
                    out = _real(*a, **kw)
                    ran.append(_name)
                    return out

                monkeypatch.setattr(session, "execute_many", tracked)

    @pytest.mark.parametrize("fail_feed,survivor", [("jackson", "banff"), ("banff", "jackson")])
    def test_single_error_names_feed_and_keeps_survivors(
        self, feeds, zoo, fast_config, monkeypatch, fail_feed, survivor
    ):
        from repro.common.errors import ExecutionError

        multi = MultiCameraSession(feeds, zoo=zoo, config=fast_config)
        ran = []
        self._arm(multi, fail_feed, ran, monkeypatch)
        with pytest.raises(ExecutionError) as excinfo:
            multi.execute(RedCarQuery())
        # One error, naming the failing feed, with the survivor run (also
        # when it comes after the failing feed) and its results attached.
        assert f"'{fail_feed}'" in str(excinfo.value)
        assert set(excinfo.value.failed_feeds) == {fail_feed}
        assert ran == [survivor]
        assert set(excinfo.value.partial_results) == {survivor}
        [result] = excinfo.value.partial_results[survivor]
        assert result.num_frames_processed == feeds[survivor].num_frames
