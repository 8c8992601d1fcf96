"""Fuzz the decoders of outside input: only ValueError may escape.

WireError is a ValueError, so it passes; an IndexError, KeyError,
OverflowError or any other exception from malformed input fails.
"""

from hypothesis import given, settings, strategies as st

from qlhl.bits import QBITS_MAGIC, QBITS_VERSION, load_qbits
from qlhl.handshake.wire import core_of_wire, decode_message, field_to_bits
from qlhl.ledger import kv_parse, source_from_kv

SOURCE_KEYS = ("label", "length_bits", "hmin_bits", "neg_log2_eps", "kind")

# raw bytes, plus frames whose headers get past the first checks
wire_bytes = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda t, body: bytes([t]) + len(body).to_bytes(4, "big")
              + body, st.integers(0, 9), st.binary(max_size=48)),
    st.builds(lambda body: QBITS_MAGIC + bytes([QBITS_VERSION]) + body,
              st.binary(max_size=32)))
# free text, plus 'key: value' records over the source keys
kv_text = st.one_of(
    st.text(max_size=80),
    st.dictionaries(st.sampled_from(SOURCE_KEYS), st.text(max_size=12))
    .map(lambda rec: "\n".join(f"{k}: {v}" for k, v in rec.items())))


def _only_value_error(decode, *args):
    try:
        decode(*args)
    except ValueError:
        pass


@settings(max_examples=400, deadline=None)
@given(wire_bytes, kv_text, st.integers(-16, 600))
def test_decoders_raise_only_value_error(data, text, nbits):
    _only_value_error(decode_message, data)
    _only_value_error(core_of_wire, data)
    _only_value_error(field_to_bits, data, nbits)
    _only_value_error(load_qbits, data)
    _only_value_error(kv_parse, text)
    _only_value_error(source_from_kv, text)
