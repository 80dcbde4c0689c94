"""The Youtopia wire protocol (docs/PROTOCOL.md), client side, for a
non-blocking load generator: framing, field escaping, and decoding of the
responses a client sees (RESULT, ERROR, STATS, PONG, PUSH, WELCOME)."""

import struct
from urllib.parse import unquote

VERSION = 2
RAW_BIT = 0x80000000

# Relational.Wal.escape: the six characters the grammar uses as separators.
_ESCAPES = str.maketrans(
    {"%": "%25", "|": "%7C", "\n": "%0A", "\r": "%0D", ";": "%3B", ",": "%2C"}
)


def esc(s):
    return s.translate(_ESCAPES)


def frame(payload):
    b = payload.encode()
    return struct.pack(">I", len(b)) + b


def hello(user):
    return frame("HELLO|%d|%s" % (VERSION, esc(user)))


def submit(rid, sql):
    return frame("SUBMIT|%d|%s" % (rid, esc(sql)))


def admin(rid, what):
    return frame("ADMIN|%d|%s" % (rid, esc(what)))


def ping(rid, payload):
    return frame("PING|%d|%s" % (rid, esc(payload)))


class ProtocolError(Exception):
    pass


class Reader:
    """Incremental frame decoder: feed socket bytes, take whole frames."""

    def __init__(self):
        self.buf = bytearray()

    def feed(self, data):
        self.buf += data

    def frames(self):
        out = []
        pos, buf = 0, self.buf
        while len(buf) - pos >= 4:
            (word,) = struct.unpack_from(">I", buf, pos)
            n = word & ~RAW_BIT
            if len(buf) - pos - 4 < n:
                break
            payload = bytes(buf[pos + 4 : pos + 4 + n]).decode()
            out.append(decode(payload, raw=bool(word & RAW_BIT)))
            pos += 4 + n
        if pos:
            del buf[:pos]
        return out


def _value(field):
    tag, body = field[0], field[1:]
    if tag == "i":
        return int(body)
    if tag == "s":
        return unquote(body)
    if tag == "f":
        return float(body)
    if tag == "b":
        return body == "true"
    if tag == "n":
        return None
    raise ProtocolError("bad value tag in %r" % field)


def notification(s):
    """qid|owner|label|gid;gid;…|rel;tuple,… -> dict."""
    parts = s.split("|")
    if len(parts) != 5:
        raise ProtocolError("bad notification: %r" % s)
    qid, owner, _label, group, answers = parts
    rows = []
    for a in answers.split(",") if answers else []:
        rel, tup = a.split(";")
        tup = unquote(tup)
        rows.append((unquote(rel), tuple(_value(v) for v in tup.split(",")) if tup else ()))
    return {
        "qid": int(qid),
        "owner": unquote(owner),
        "group": [int(g) for g in group.split(";")] if group else [],
        "answers": rows,
    }


def body(s):
    """A RESULT body: ("SQL", text) | ("REG", qid) | ("ANS", notification)
    | ("REJ", msg) | ("LST", text) | ("MUL", [body, …])."""
    parts = s.split("|")
    tag = parts[0]
    if tag == "MUL":
        return ("MUL", [body(unquote(b)) for b in parts[1:]])
    if len(parts) != 2:
        raise ProtocolError("bad result body: %r" % s)
    if tag == "REG":
        return ("REG", int(parts[1]))
    if tag == "ANS":
        return ("ANS", notification(unquote(parts[1])))
    if tag in ("SQL", "REJ", "LST"):
        return (tag, unquote(parts[1]))
    raise ProtocolError("bad result body: %r" % s)


def decode(payload, raw=False):
    """One response frame -> (kind, request id or None, value)."""
    if raw:
        header, _, rest = payload.partition("\n")
        kind, _, rid = header.partition("|")
        if kind != "RESULT":
            raise ProtocolError("unexpected raw frame %r" % header)
        return ("RESULT", int(rid), ("SQL", rest))
    parts = payload.split("|")
    kind = parts[0]
    if kind == "PUSH" and len(parts) == 2:
        return ("PUSH", None, notification(unquote(parts[1])))
    if len(parts) != 3:
        raise ProtocolError("bad response: %r" % payload[:200])
    if kind == "RESULT":
        return ("RESULT", int(parts[1]), body(unquote(parts[2])))
    if kind in ("ERROR", "STATS", "PONG", "WELCOME"):
        return (kind, int(parts[1]), unquote(parts[2]))
    raise ProtocolError("bad response: %r" % payload[:200])


def sql_rows(text):
    """The row lines of a rendered plain-SQL result ("(1, 'x')" each)."""
    return [
        line
        for line in text.split("\n")
        if line.startswith("(") and not line.endswith(" row(s))")
    ]
