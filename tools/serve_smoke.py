#!/usr/bin/env python3
"""Smoke test for gqc_serve: boot, drive ~100 mixed requests, drain.

Usage: serve_smoke.py /path/to/gqc_serve

Asserts:
  * the server prints the GQC_SERVE_READY handshake and accepts connections;
  * decide requests return well-formed outcome lines with stable verdicts
    (the same pair always gets the same verdict across the run);
  * over-deadline requests come back kUnknown (deadline), never a flipped
    definite verdict;
  * malformed lines get {"ok":false,...} without killing the connection;
  * a line longer than the server's cap gets {"ok":false,...} and a closed
    connection, and fresh connections are still served;
  * stats/ping/evict respond; and
  * SIGTERM drains gracefully: every in-flight request is answered and the
    process exits 0.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

SCHEMA = "A <= exists r.B\ntop <= forall r.B"

# kMaxRequestLineBytes in src/serve/server.cc: the longest request line a
# connection may have pending without a newline.
MAX_LINE_BYTES = 1 << 20

# Small UCRPQ pairs over the schema above; mix of contained / not / self.
PAIRS = [
    ("q0", "A(x), r(x, y), B(y)", "A(x), r(x, y)"),
    ("q1", "A(x), r(x, y)", "A(x), r(x, y), B(y)"),
    ("q2", "r(x, y)", "r(x, y); s(x, y)"),
    ("q3", "A(x)", "B(x)"),
    ("q4", "A(x), r(x, y), r(y, z)", "r(x, y)"),
]


class Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.buf = b""

    def request(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise RuntimeError("server closed connection mid-request")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.sock.close()


def fail(msg):
    print("serve_smoke: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: serve_smoke.py /path/to/gqc_serve")
    binary = sys.argv[1]

    proc = subprocess.Popen(
        [binary, "--port", "0", "--max-inflight", "2", "--max-queue", "4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        ready = proc.stdout.readline().decode().strip()
        if not ready.startswith("GQC_SERVE_READY port="):
            fail("bad handshake line: %r" % ready)
        port = int(ready.split("=", 1)[1])

        client = Client(port)

        # Warm-up + protocol sanity.
        pong = client.request({"op": "ping"})
        if not (pong.get("ok") and pong.get("pong")):
            fail("ping: %r" % pong)
        bad = client.request({"op": "no-such-op"})
        if bad.get("ok") is not False:
            fail("unknown op accepted: %r" % bad)

        # ~100 mixed requests on one connection; verdicts must be stable.
        verdicts = {}
        decided = 0
        for i in range(90):
            qid, p, q = PAIRS[i % len(PAIRS)]
            req = {"id": "%s-%d" % (qid, i), "schema": SCHEMA, "p": p, "q": q}
            if i % 9 == 7:
                # Over-deadline: must shed to unknown, never flip a verdict.
                req["deadline_ms"] = "0.0001"
            resp = client.request(req)
            if not resp.get("ok"):
                fail("decide %s errored: %r" % (req["id"], resp))
            verdict = resp.get("verdict")
            if verdict not in ("contained", "not-contained", "unknown"):
                fail("decide %s: bad verdict %r" % (req["id"], verdict))
            decided += 1
            if verdict != "unknown":
                prev = verdicts.setdefault(qid, verdict)
                if prev != verdict:
                    fail("verdict flip for %s: %s vs %s" % (qid, prev, verdict))
            if i % 25 == 13:
                st = client.request({"op": "stats"})
                if not st.get("ok") or "serve" not in st or "engine" not in st:
                    fail("stats: %r" % st)

        # Every non-degenerate pair must have produced a definite verdict at
        # least once (deadlines only hit 1-in-9 requests).
        for qid, _, _ in PAIRS:
            if qid not in verdicts:
                fail("pair %s never produced a definite verdict" % qid)

        # Malformed JSON must not kill the connection.
        client.sock.sendall(b"{this is not json\n")
        client.buf = b""
        while b"\n" not in client.buf:
            client.buf += client.sock.recv(65536)
        line, client.buf = client.buf.split(b"\n", 1)
        err = json.loads(line)
        if err.get("ok") is not False:
            fail("malformed line accepted: %r" % err)
        pong = client.request({"op": "ping"})
        if not pong.get("pong"):
            fail("connection dead after malformed line")

        # An over-long line: exactly one byte past the cap and no newline,
        # so the server has read all of it when it answers and hangs up.
        hog = socket.create_connection(("127.0.0.1", port), timeout=30)
        hog.sendall(b"x" * (MAX_LINE_BYTES + 1))
        reply = b""
        while True:
            chunk = hog.recv(65536)
            if not chunk:
                break
            reply += chunk
        hog.close()
        lines = reply.split(b"\n")
        if len(lines) != 2 or lines[1] != b"":
            fail("over-long line: want one reply line then EOF, got %r" % reply)
        if json.loads(lines[0]).get("ok") is not False:
            fail("over-long line accepted: %r" % reply)
        fresh = Client(port)
        if not fresh.request({"op": "ping"}).get("pong"):
            fail("fresh connection not served after an over-long line")
        fresh.close()

        ev = client.request({"op": "evict", "pressure": "1.0"})
        if not ev.get("ok"):
            fail("evict: %r" % ev)

        # A few extra connections so drain has multiple handlers to join.
        extras = [Client(port) for _ in range(3)]
        for i, c in enumerate(extras):
            resp = c.request(
                {"id": "x%d" % i, "schema": SCHEMA,
                 "p": PAIRS[0][1], "q": PAIRS[0][2]})
            if not resp.get("ok"):
                fail("extra conn decide: %r" % resp)

        # Graceful drain: SIGTERM, then the process must exit 0 on its own.
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        if rc != 0:
            fail("drain exit code %d (want 0)" % rc)

        client.close()
        for c in extras:
            c.close()
        print("serve_smoke: OK (%d requests decided, clean drain)" % decided)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
