"""Rule-level tests for the effects pass: positive/negative fixtures
for RPL201 and RPL202, executor/lock exemptions, and the
interprocedural blocking-summary behavior (report-at-innermost-
coroutine, chain rendering)."""

from __future__ import annotations

from pathlib import Path

from repro.devtools.lint import LintResult, run_lint


def write(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def lint_effects(*paths: Path) -> LintResult:
    return run_lint([str(p) for p in paths])


def rules_hit(result: LintResult) -> set:
    return {finding.rule for finding in result.findings}


# ---------------------------------------------------------------------------
# RPL201 — blocking calls on the event loop
# ---------------------------------------------------------------------------
class TestRPL201:
    def test_flags_time_sleep_in_coroutine(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL201"}
        assert "time.sleep()" in result.findings[0].message

    def test_flags_builtin_open_in_coroutine(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "async def f(p):\n"
            "    with open(p) as fh:\n"
            "        return fh.read()\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL201"}
        assert "open()" in result.findings[0].message

    def test_flags_json_loads_on_request_body(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import json\n"
            "async def handler(body):\n"
            "    return json.loads(body)\n",
        )
        assert rules_hit(lint_effects(path)) == {"RPL201"}

    def test_flags_blocking_through_sync_helper_chain(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "def inner(p):\n"
            "    return open(p).read()\n"
            "def outer(p):\n"
            "    return inner(p)\n"
            "async def f(p):\n"
            "    return outer(p)\n",
        )
        result = lint_effects(path)
        rpl201 = [f for f in result.findings if f.rule == "RPL201"]
        assert len(rpl201) == 1
        assert "outer -> inner" in rpl201[0].message
        assert rpl201[0].line == 6

    def test_allows_executor_wrapped_call(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import asyncio, time\n"
            "async def f():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, lambda: time.sleep(1))\n"
            "    await asyncio.to_thread(time.sleep, 1)\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_reports_inside_the_blocking_coroutine_not_callers(
        self, tmp_path
    ):
        """Blocking never propagates through an async callee: the fix
        belongs in the innermost coroutine and clears every caller."""
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "import time\n"
            "async def inner():\n"
            "    time.sleep(1)\n"
            "async def outer():\n"
            "    await inner()\n",
        )
        result = lint_effects(path)
        rpl201 = [f for f in result.findings if f.rule == "RPL201"]
        assert len(rpl201) == 1
        assert rpl201[0].line == 3

    def test_sync_functions_are_not_flagged(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import time\n"
            "def f():\n"
            "    time.sleep(1)\n",
        )
        assert rules_hit(lint_effects(path)) == set()


# ---------------------------------------------------------------------------
# RPL202 — shared state mutated across an await
# ---------------------------------------------------------------------------
class TestRPL202:
    STOP_SHAPED = (
        "class Router:\n"
        "    async def stop(self):\n"
        "        if self._worker is not None:\n"
        "            self._worker.cancel()\n"
        "            await self._worker\n"
        "            self._worker = None\n"
    )

    def test_flags_read_await_write(self, tmp_path):
        path = write(tmp_path, "src/repro/analysis/bad.py", self.STOP_SHAPED)
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL202"}
        assert "'self._worker'" in result.findings[0].message
        assert result.findings[0].line == 6

    def test_allows_capture_and_swap(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "class Router:\n"
            "    async def stop(self):\n"
            "        worker, self._worker = self._worker, None\n"
            "        if worker is not None:\n"
            "            worker.cancel()\n"
            "            await worker\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_allows_lock_guarded_region(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "class Router:\n"
            "    async def stop(self):\n"
            "        async with self._lock:\n"
            "            if self._worker is not None:\n"
            "                await self._worker\n"
            "                self._worker = None\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_allows_read_write_without_intervening_await(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/good.py",
            "import asyncio\n"
            "class Counter:\n"
            "    async def bump(self):\n"
            "        self._n = self._n + 1\n"
            "        await asyncio.sleep(0)\n",
        )
        assert rules_hit(lint_effects(path)) == set()

    def test_flags_through_loop_back_edge(self, tmp_path):
        """The hazard survives a loop: the read happens on iteration N,
        the await and write on the same pass — caught via fixpoint."""
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "class Poller:\n"
            "    async def run(self):\n"
            "        while True:\n"
            "            if self._pending:\n"
            "                await self.flush()\n"
            "                self._pending = False\n",
        )
        assert rules_hit(lint_effects(path)) == {"RPL202"}

    def test_tracks_declared_globals(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/bad.py",
            "_STATE = None\n"
            "async def f(x):\n"
            "    global _STATE\n"
            "    if _STATE is None:\n"
            "        await x\n"
            "        _STATE = x\n",
        )
        result = lint_effects(path)
        assert rules_hit(result) == {"RPL202"}
        assert "'_STATE'" in result.findings[0].message


# ---------------------------------------------------------------------------
# suppression interplay
# ---------------------------------------------------------------------------
class TestSuppression:
    def test_justified_suppression_silences_effects_finding(self, tmp_path):
        path = write(
            tmp_path, "src/repro/analysis/ok.py",
            "import time\n"
            "async def f():\n"
            "    time.sleep(1)  # reprolint: disable=RPL201 -- test fixture\n",
        )
        result = lint_effects(path)
        assert result.findings == []
        assert len(result.suppressed) == 1
