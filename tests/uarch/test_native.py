"""The native replay kernel's build and its fallback events."""

import logging
import subprocess

import pytest

from repro.uarch import batched
from repro.uarch.config import power5
from repro.uarch.core import Core
from repro.uarch.synthetic import MixProfile, generate_trace


class TestBuildDigest:
    def test_flags_and_compiler_change_the_so_name(self):
        flags = batched._NATIVE_FLAGS
        base = batched._native_so_path("/usr/bin/cc", flags)
        assert batched._native_so_path("/usr/bin/cc", flags) == base
        assert batched._native_so_path(
            "/usr/bin/cc", ("-O1", *flags[1:])
        ) != base
        assert batched._native_so_path(
            "/usr/bin/cc", (*flags, "-fsanitize=address")
        ) != base
        assert batched._native_so_path("/usr/bin/clang", flags) != base


class TestFallbackEvents:
    def test_library_logging_is_silent_by_default(self):
        handlers = logging.getLogger("repro").handlers
        assert any(isinstance(h, logging.NullHandler) for h in handlers)

    def test_failed_build_logs_one_warning_with_stderr(
        self, monkeypatch, caplog
    ):
        def failing_build():
            raise subprocess.CalledProcessError(
                1, ["cc"], stderr=b"replay.c:1: error: boom\n"
            )

        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(batched, "_native_state", {})
        monkeypatch.setattr(batched, "_build_native", failing_build)
        with caplog.at_level(logging.WARNING, logger="repro.uarch.batched"):
            assert batched._native_kernel() is None
            assert batched._native_kernel() is None  # cached, no repeat
            trace = generate_trace(2_000, MixProfile(), seed=5)
            result = Core(power5()).simulate(trace)
        assert result.instructions == len(trace)
        warnings = [r for r in caplog.records
                    if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "error: boom" in warnings[0].getMessage()

    def test_python_replay_is_a_debug_event(self, monkeypatch, caplog):
        if batched._native_kernel() is None:
            pytest.skip("native replay kernel unavailable")
        trace = generate_trace(2_000, MixProfile(), seed=6)
        multiply = trace.sid[next(
            i for i in range(len(trace))
            if trace.static.occupancies[trace.sid[i]] > 1
        )]
        trace.static.occupancies[multiply] = 200
        with caplog.at_level(logging.DEBUG, logger="repro.uarch.batched"):
            Core(power5()).simulate(trace)
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert "Python" in caplog.records[0].getMessage()
