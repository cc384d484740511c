"""The one JSON decoding rule of every input: frame documents (format A),
model files and profile files."""
from __future__ import annotations

import json

import orjson


def decode_json(data: str | bytes):
    """The value of a JSON document, as json.loads gives it; bytes are read
    as UTF-8.

    orjson decodes the document; one that orjson rejects is decoded again by
    json.loads, whose value or error stands. So the literals NaN and Infinity,
    numbers beyond a double and lone surrogates decode as json.loads decodes
    them, and reach the caller's checks. An integer beyond 64 bits that a
    double holds decodes as the nearest double rather than as an int. A
    document nested too deeply for json.loads raises a JSONDecodeError at
    offset 0, as any other malformed document does, not a RecursionError.
    Bytes that are not UTF-8 raise a UnicodeDecodeError before any
    JSONDecodeError."""
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise json.JSONDecodeError("nested too deeply", text, 0) from exc
