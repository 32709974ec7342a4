"""The TCP wire: JSON lines only, and every bad line gets a typed answer.

A live in-process server must answer each malformed request line — one
longer than the reader's 64 KiB limit, one that is not UTF-8, one that is
not JSON, one that is JSON but not an object — with an ``error`` event and
go on serving. Nothing on the wire is ever unpickled: no module of the
service or the scheduler imports ``pickle``, and a ``"cells"`` line that
carries pickled payloads is refused without decoding them.
"""

from __future__ import annotations

import ast
import asyncio
import base64
import json
import pickle
from pathlib import Path

import pytest

import repro
from repro.service import SweepService
from repro.service.server import _connection

SWEEP_REQUEST = {
    "schemes": ["bcc"],
    "loads": [4],
    "workers": 10,
    "units": 10,
    "iterations": 3,
    "trials": 2,
}

#: Modules that turn bytes into live objects; none belongs on the wire.
UNPICKLERS = {"pickle", "_pickle", "cloudpickle", "dill", "marshal", "shelve"}


async def read_events(reader: asyncio.StreamReader) -> list:
    """Events up to and including the next ``done`` or ``error``."""
    events = []
    while True:
        line = await reader.readline()
        if not line:
            return events
        events.append(json.loads(line))
        if events[-1]["event"] in ("done", "error"):
            return events


def on_live_server(scenario):
    """Run ``scenario(host, port)`` against a fresh in-process server."""

    async def main():
        service = SweepService()
        server = await asyncio.start_server(
            lambda reader, writer: _connection(service, reader, writer),
            "127.0.0.1",
            0,
        )
        port = server.sockets[0].getsockname()[1]
        async with server:
            return await scenario("127.0.0.1", port)

    return asyncio.run(main())


class TestMalformedLines:
    @pytest.mark.parametrize(
        "line, message",
        [
            (b"\xff\xfe not utf-8\n", "utf-8"),
            (b"{not json\n", "Expecting"),
            (b"[1, 2, 3]\n", "JSON object"),
            (b'"cells"\n', "JSON object"),
            (b"null\n", "JSON object"),
            (b'{"request": "cells"}\n', "unknown request type 'cells'"),
        ],
        ids=["non-utf8", "not-json", "json-array", "json-string", "json-null", "cells"],
    )
    def test_bad_line_gets_an_error_and_the_connection_keeps_serving(
        self, line, message
    ):
        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(line)
                rejected = await read_events(reader)
                writer.write(json.dumps(SWEEP_REQUEST).encode("utf-8") + b"\n")
                answered = await read_events(reader)
            finally:
                writer.close()
            return rejected, answered

        rejected, answered = on_live_server(scenario)
        assert [event["event"] for event in rejected] == ["error"]
        assert message in rejected[0]["error"]
        assert answered[-1]["event"] == "done"
        assert answered[-1]["records"] == 2

    @pytest.mark.parametrize("terminated", [True, False], ids=["line", "unterminated"])
    def test_oversized_line_gets_an_error_then_the_server_keeps_serving(
        self, terminated
    ):
        # A syntactically plausible request, far past the 64 KiB line limit.
        huge = json.dumps({"schemes": ["bcc"] * 30_000}).encode("utf-8")
        assert len(huge) > 2 * 2**16

        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(huge + (b"\n" if terminated else b""))
                await writer.drain()
                rejected = await read_events(reader)
                try:
                    hung_up = await reader.read() == b""
                except ConnectionResetError:
                    # The server closed with part of the line unread, which
                    # the kernel reports to the peer as a reset.
                    hung_up = True
            finally:
                writer.close()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(json.dumps(SWEEP_REQUEST).encode("utf-8") + b"\n")
                answered = await read_events(reader)
            finally:
                writer.close()
            return rejected, hung_up, answered

        rejected, hung_up, answered = on_live_server(scenario)
        assert [event["event"] for event in rejected] == ["error"]
        assert "64 KiB" in rejected[0]["error"]
        assert hung_up
        assert answered[-1]["event"] == "done"

    def test_request_just_under_the_limit_is_served(self):
        # The oversized-line guard must not cost valid requests their room:
        # a sweep request padded to just under 64 KiB is answered in full.
        body = json.dumps(SWEEP_REQUEST).encode("utf-8")
        line = body[:-1] + b" " * (2**16 - len(body) - 2) + b"}\n"
        assert len(line) == 2**16 - 1

        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(line)
                return await read_events(reader)
            finally:
                writer.close()

        answered = on_live_server(scenario)
        assert answered[-1]["event"] == "done"
        assert answered[-1]["records"] == 2


class _Canary:
    """Unpickling this writes ``path`` — proof the payload was decoded."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def __reduce__(self):
        return (exec, (f"open({str(self.path)!r}, 'w').close()",))


class TestNoPickleOnTheWire:
    @pytest.mark.parametrize(
        "package", ["service", "scheduling"], ids=["service", "scheduling"]
    )
    def test_no_module_imports_an_unpickler(self, package):
        root = Path(repro.__file__).parent / package
        modules = sorted(root.rglob("*.py"))
        assert modules
        offenders = []
        for path in modules:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    if name.split(".")[0] in UNPICKLERS:
                        offenders.append(f"{path.name}:{node.lineno} {name}")
        assert offenders == []

    def test_cells_request_is_refused_without_decoding(self, tmp_path):
        canary = tmp_path / "unpickled"
        blob = base64.b64encode(pickle.dumps(_Canary(canary))).decode("ascii")
        request = {"request": "cells", "tasks": [blob]}

        async def scenario(host, port):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(json.dumps(request).encode("utf-8") + b"\n")
                rejected = await read_events(reader)
                writer.write(json.dumps(SWEEP_REQUEST).encode("utf-8") + b"\n")
                answered = await read_events(reader)
            finally:
                writer.close()
            return rejected, answered

        rejected, answered = on_live_server(scenario)
        assert [event["event"] for event in rejected] == ["error"]
        assert "unknown request type 'cells'" in rejected[0]["error"]
        assert not canary.exists()
        assert answered[-1]["event"] == "done"
        # The canary proves something only if decoding it would show.
        pickle.loads(base64.b64decode(blob))
        assert canary.exists()
