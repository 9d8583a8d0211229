"""From-scratch compression algorithms built from shared primitives.

The package mirrors the paper's premise (§3.4, §5): all codecs are composed
from a common LZ77 dictionary-coding stage plus optional Huffman/FSE entropy
stages, so adding an algorithm mostly means recombining primitives.
"""

from repro.algorithms.base import Codec, CodecInfo, Operation, WeightClass
from repro.algorithms.fse import FseTable
from repro.algorithms.flate import FlateCodec
from repro.algorithms.gipfeli import GipfeliCodec
from repro.algorithms.huffman import HuffmanTable
from repro.algorithms.lz77 import (
    Copy,
    Literal,
    Lz77Encoder,
    Lz77Params,
    Token,
    TokenStream,
    TokenStreamBuilder,
    decode_tokens,
)
from repro.algorithms.lzo import LzoCodec
from repro.algorithms.registry import (
    ALGORITHM_INFOS,
    available_codecs,
    get_codec,
    get_info,
    heavyweight_algorithms,
    lightweight_algorithms,
)
from repro.algorithms.snappy import SnappyCodec
from repro.algorithms.streaming import (
    CompressContext,
    DecompressContext,
    StreamContext,
)
from repro.algorithms.zstd import ZstdCodec

__all__ = [
    "ALGORITHM_INFOS",
    "Codec",
    "CodecInfo",
    "CompressContext",
    "Copy",
    "DecompressContext",
    "StreamContext",
    "FlateCodec",
    "FseTable",
    "GipfeliCodec",
    "HuffmanTable",
    "Literal",
    "Lz77Encoder",
    "Lz77Params",
    "LzoCodec",
    "Operation",
    "SnappyCodec",
    "Token",
    "TokenStream",
    "TokenStreamBuilder",
    "WeightClass",
    "ZstdCodec",
    "available_codecs",
    "decode_tokens",
    "get_codec",
    "get_info",
    "heavyweight_algorithms",
    "lightweight_algorithms",
]
