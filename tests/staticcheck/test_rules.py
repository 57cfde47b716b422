"""Each rule family, exercised both ways on the fixture packages."""

from __future__ import annotations

from staticcheck_helpers import findings_for, ids_of, keys_of

from repro.staticcheck import CheckConfig


# -- stream-protocol (SC1xx) ------------------------------------------------------


def test_stream_protocol_clean(cleanpkg):
    assert findings_for(cleanpkg, "stream-protocol") == []


def test_stream_protocol_missing_methods(badpkg):
    keys = keys_of(findings_for(badpkg, "stream-protocol"))
    assert "SC101::streaming.py::IncompleteStream.missing.observe_frame" in keys
    assert "SC101::streaming.py::IncompleteStream.missing.finalize" in keys
    # plan_streams IS implemented — no finding for it
    assert "SC101::streaming.py::IncompleteStream.missing.plan_streams" not in keys


def test_stream_protocol_wrong_done_signature(badpkg):
    findings = findings_for(badpkg, "stream-protocol")
    sig = [f for f in findings if f.rule_id == "SC102"]
    assert [f.fingerprint for f in sig] == ["WrongSignatureStream.done.signature"]
    assert "done" in sig[0].message


def test_stream_protocol_private_access_and_arity(badpkg):
    findings = findings_for(badpkg, "stream-protocol")
    assert "SC103::consumer.py::private-access._buf" in keys_of(findings)
    assert "SC104::consumer.py::call-arity.observe_frame.2" in keys_of(findings)


def test_stream_protocol_vararg_override_is_compatible(cleanpkg):
    # LazyStream.done(self, *extra) must not be flagged
    assert findings_for(cleanpkg, "stream-protocol") == []


# -- gate-purity (SC2xx) ----------------------------------------------------------


def test_gate_purity_clean(cleanpkg):
    assert findings_for(cleanpkg, "gate-purity") == []


def test_gate_purity_self_write(badpkg):
    keys = keys_of(findings_for(badpkg, "gate-purity"))
    assert "SC201::framefilters.py::StatefulFilter.self-write._last" in keys


def test_gate_purity_mutation_two_helpers_deep(badpkg):
    findings = findings_for(badpkg, "gate-purity")
    deep = [f for f in findings if f.rule_id == "SC202"]
    assert len(deep) == 1
    assert deep[0].symbol == "badpkg.framefilters.CountingFilter"
    # the finding names the helper chain that reached the mutation
    assert "via keep -> _record -> _tally" in deep[0].message


def test_gate_purity_raw_rng_on_eval_path(badpkg):
    keys = keys_of(findings_for(badpkg, "gate-purity"))
    assert "SC203::framefilters.py::NoisyFilter.rng.numpy.random.random" in keys


def test_gate_purity_package_wide_rng_policy(badpkg):
    keys = keys_of(findings_for(badpkg, "gate-purity"))
    assert "SC204::framefilters.py::raw-rng.numpy.random.default_rng" in keys


# -- picklability (SC3xx) ---------------------------------------------------------


def test_picklability_clean(cleanpkg):
    assert findings_for(cleanpkg, "picklability") == []


def test_picklability_optional_lock_field(badpkg):
    findings = findings_for(badpkg, "picklability")
    lock = [f for f in findings if f.key == "SC301::plan.py::QueryPlan.guard.type"]
    assert len(lock) == 1
    assert "threading.Lock" in lock[0].message


def test_picklability_init_assignments(badpkg):
    keys = keys_of(findings_for(badpkg, "picklability"))
    # annotation flows from the __init__ parameter to the stored field
    assert "SC301::plan.py::ExecutionContext.worker.type" in keys
    # generator expressions stored on the context
    assert "SC302::plan.py::ExecutionContext.frames.value" in keys


def test_picklability_default_factory_and_lambda_registration(badpkg):
    findings = findings_for(badpkg, "picklability")
    keys = keys_of(findings)
    assert "SC302::plan.py::QueryPlan.factory.value" in keys
    assert "SC303::plan.py::register-lambda.bad_factory" in keys
    advisory = [f for f in findings if f.rule_id == "SC304"]
    assert [f.severity for f in advisory] == ["info"]


# -- thread-safety (SC4xx) --------------------------------------------------------


def test_thread_safety_clean_lock_guarded(cleanpkg):
    assert findings_for(cleanpkg, "thread-safety") == []


def test_thread_safety_unsynchronized_mutations(badpkg):
    keys = keys_of(findings_for(badpkg, "thread-safety"))
    assert "SC401::state.py::unsync-write._results.item-write" in keys
    assert "SC401::state.py::unsync-write._totals.call-append" in keys
    assert "SC401::state.py::unsync-write._current.rebind" in keys


def test_thread_safety_pool_lambda(badpkg):
    findings = [f for f in findings_for(badpkg, "thread-safety") if f.rule_id == "SC402"]
    assert len(findings) == 1
    assert findings[0].severity == "warning"


# -- knob-hygiene (SC5xx) ---------------------------------------------------------


def test_knob_hygiene_clean_default_false(cleanpkg):
    assert findings_for(cleanpkg, "knob-hygiene") == []


def test_knob_hygiene_default_true(badpkg):
    findings = findings_for(badpkg, "knob-hygiene")
    keys = keys_of(findings)
    assert "SC501::knobs.py::RiskyConfig.enable_turbo.default" in keys
    assert "SC501::knobs.py::RiskyConfig.enable_phantom.default" not in keys
    # A subsystem config must be absent (None) by default.
    assert "SC501::knobs.py::RiskyConfig.turbo.default" in keys
    assert "SC501::knobs.py::RiskyConfig.phantom.default" not in keys
    (turbo,) = [f for f in findings if f.symbol.endswith("RiskyConfig.turbo")]
    assert "TurboConfig()" in turbo.message and "(None)" in turbo.message


def test_knob_hygiene_coverage_and_docs(badpkg, tmp_path):
    tests_dir = tmp_path / "tests"
    tests_dir.mkdir()
    # A subsystem field's name is a common word: a bare mention of
    # "phantom" is neither a test of it nor its documentation.
    (tests_dir / "test_knobs.py").write_text(
        "def test_turbo():\n"
        "    assert config(enable_turbo=False, turbo=None)  # not the phantom\n"
    )
    docs_dir = tmp_path / "docs"
    docs_dir.mkdir()
    (docs_dir / "config.md").write_text(
        "`enable_turbo` switches turbo mode and `turbo` tunes it; no phantom here.\n"
    )
    config = CheckConfig(tests_dir=tests_dir, docs_paths=[docs_dir])
    keys = keys_of(findings_for(badpkg, "knob-hygiene", config))
    # turbo is tested and documented in both spellings; phantom in neither
    for name in ("enable_phantom", "phantom"):
        assert f"SC502::knobs.py::RiskyConfig.{name}.untested" in keys
        assert f"SC503::knobs.py::RiskyConfig.{name}.undocumented" in keys
    for name in ("enable_turbo", "turbo"):
        assert f"SC502::knobs.py::RiskyConfig.{name}.untested" not in keys
        assert f"SC503::knobs.py::RiskyConfig.{name}.undocumented" not in keys


def test_knob_hygiene_subchecks_skipped_without_env(badpkg):
    ids = ids_of(findings_for(badpkg, "knob-hygiene"))
    assert ids == {"SC501"}


# -- trace-hygiene (SC6xx) --------------------------------------------------------


def test_trace_hygiene_clean_with_statements(cleanpkg):
    # with-statement spans and stack.enter_context(...) are both fine
    assert findings_for(cleanpkg, "trace-hygiene") == []


def test_trace_hygiene_span_outside_with(badpkg):
    keys = keys_of(findings_for(badpkg, "trace-hygiene"))
    assert "SC601::tracing.py::span-no-with.leaky-scan" in keys


def test_trace_hygiene_manual_enter(badpkg):
    keys = keys_of(findings_for(badpkg, "trace-hygiene"))
    # the manual __enter__ call is doubly wrong: the span call itself is
    # outside a with-statement (SC601) AND entered by hand (SC602)
    assert "SC601::tracing.py::span-no-with.manual-scan" in keys
    assert "SC602::tracing.py::span-manual-enter.manual-scan" in keys


def test_trace_hygiene_severity(badpkg):
    findings = findings_for(badpkg, "trace-hygiene")
    assert findings and all(f.severity == "error" for f in findings)


# -- retry-hygiene (SC7xx) --------------------------------------------------------


def test_retry_hygiene_clean(cleanpkg):
    # bounded retries charging backoff, escapable while-True recovery loops,
    # and broad excepts that record or re-raise are all fine
    assert findings_for(cleanpkg, "retry-hygiene") == []


def test_retry_hygiene_swallowed_broad_except(badpkg):
    keys = keys_of(findings_for(badpkg, "retry-hygiene"))
    assert "SC701::resilience.py::swallowed-broad-except.swallow_everything.<unbound>" in keys
    assert "SC701::resilience.py::swallowed-broad-except.swallow_with_unused_binding.exc" in keys


def test_retry_hygiene_unbounded_retry(badpkg):
    keys = keys_of(findings_for(badpkg, "retry-hygiene"))
    assert "SC702::resilience.py::unbounded-retry.retry_forever" in keys


def test_retry_hygiene_free_retry(badpkg):
    keys = keys_of(findings_for(badpkg, "retry-hygiene"))
    assert "SC703::resilience.py::free-retry.hot_retry_no_backoff" in keys


def test_retry_hygiene_severity(badpkg):
    findings = findings_for(badpkg, "retry-hygiene")
    assert findings and all(f.severity == "error" for f in findings)
