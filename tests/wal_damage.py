"""The damage a crash or a bad disk does to a log, shared by the verdict
journal's and the edge spool's crash-contract properties."""


def damaged_copies(blob: bytes, boundaries: list[int], cut: int,
                   flip: int) -> list[tuple[bytes, int]]:
    """``(data, whole)`` pairs: ``blob`` cut at every frame boundary, cut
    at the drawn byte ``cut``, and with the drawn bit ``flip`` flipped,
    each with the number of leading frames it leaves intact.

    ``boundaries`` is 0 followed by the end offset of every frame; ``cut``
    and ``flip`` are reduced modulo the blob's bytes and bits.
    """
    def whole(offset: int) -> int:
        return max(k for k, end in enumerate(boundaries) if end <= offset)

    damaged = [(blob[:end], k) for k, end in enumerate(boundaries)]
    cut %= len(blob) + 1
    damaged.append((blob[:cut], whole(cut)))
    if blob:
        bit = flip % (8 * len(blob))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged.append((bytes(flipped), whole(bit // 8)))
    return damaged
