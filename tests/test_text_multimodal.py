"""Text analysis functions + multimodal plumbing stages."""

import numpy as np
import pyarrow as pa
import pytest

from ulp_ray.functions.text import (
    bpe_ish_token_count,
    fingerprint64,
    fingerprint_batch,
    lang_id,
    quality_features,
    whitespace_token_count,
)
from ulp_ray.stages.multimodal import (
    AudioFeaturizer,
    ImageDecoder,
    frame_sample,
    make_synthetic_media_table,
)


def test_whitespace_token_count_matches_sql_formula():
    arr = pa.array(["a b c", "one", "x  y"])  # double space counts per formula
    assert whitespace_token_count(arr).to_pylist() == [3, 1, 3]


def test_bpe_ish_token_count():
    assert bpe_ish_token_count("Hello, world!") == 4  # Hello , ' world' '!'
    assert bpe_ish_token_count("") == 0
    assert bpe_ish_token_count("can't stop") > 2  # contraction split


def test_lang_id_heuristic():
    assert lang_id("the cat sat on the mat and it was happy") == "en"
    assert lang_id("der hund ist nicht in der küche und das ist gut") == "de"
    assert lang_id("el perro es grande y la casa es bonita por la noche") == "es"
    assert lang_id("这是一个中文文档，包含很多汉字。") == "zh"
    assert lang_id("") == "und"


def test_quality_features_columns():
    t = quality_features(pa.array(["the quick brown fox jumps over the lazy dog", "!!!"]))
    assert t.column_names == [
        "n_chars",
        "n_tokens",
        "punct_ratio",
        "stopword_ratio",
        "mean_token_len",
        "quality_score",
    ]
    rows = t.to_pylist()
    assert rows[0]["quality_score"] > rows[1]["quality_score"]
    assert rows[1]["punct_ratio"] == 1.0


def test_fingerprint_stable_and_normalized():
    a = fingerprint64("Hello   World")
    b = fingerprint64("hello world")
    assert a == b  # case/whitespace-normalized
    assert a != fingerprint64("hello worlds")
    assert fingerprint_batch(pa.array(["Hello   World"])).to_pylist() == [a]


def test_image_decoder_stub_plumbing(ray_session):
    import ray.data

    t = make_synthetic_media_table(12)
    # two blocks, so the pool can launch both of its actors
    ds = ray.data.from_arrow(t, override_num_blocks=2)
    out = ds.map_batches(
        ImageDecoder, batch_format="pyarrow", batch_size=4, concurrency=2
    ).take_all()
    assert len(out) == 12
    r = out[0]
    assert r["width"] > 0 and r["height"] > 0
    assert len(r["feature"]) == 8
    # deterministic: same payload → same decode
    out2 = ds.map_batches(
        ImageDecoder, batch_format="pyarrow", batch_size=4, concurrency=2
    ).take_all()
    assert sorted(x["mean_luma"] for x in out) == sorted(x["mean_luma"] for x in out2)


def test_audio_featurizer_stub():
    t = make_synthetic_media_table(4)
    out = AudioFeaturizer()(t)
    assert out.column_names == ["media_id", "duration_ms", "rms", "zero_crossings"]
    assert all(d >= 0 for d in out["duration_ms"].to_pylist())


def test_audio_featurizer_real_wav_roundtrip():
    """A genuine RIFF/WAVE payload decodes through the stdlib wave
    parser: header sample rate drives duration, RMS matches the known
    signal."""
    import numpy as np
    import pyarrow as pa

    from ulp_ray.stages.multimodal import encode_wav

    t_ax = np.arange(8000)
    pcm = (np.sin(2 * np.pi * 440 * t_ax / 8000) * 10000).astype(np.int16)
    wav = encode_wav(pcm, sample_rate=8000)  # 1 second at 8 kHz
    batch = pa.table(
        {
            "media_id": pa.array([1], pa.int64()),
            "payload": pa.array([wav], pa.binary()),
        }
    )
    out = AudioFeaturizer(sample_rate=16_000)(batch)  # fallback rate ignored
    assert out["duration_ms"][0].as_py() == 1000
    expected_rms = float(np.sqrt(np.mean(pcm.astype(np.float64) ** 2)))
    assert abs(out["rms"][0].as_py() - expected_rms) < 0.01
    # a 440 Hz tone crosses zero ~880 times per second
    assert 850 <= out["zero_crossings"][0].as_py() <= 910


def test_frame_sample_explodes():
    t = make_synthetic_media_table(3, payload_bytes=4096)
    out = frame_sample(t, every_n_bytes=1024, max_frames=4)
    # per-payload frame count (image rows carry small real PPMs now)
    want = [
        min(4, max(1, len(p) // 1024)) for p in t["payload"].to_pylist()
    ]
    assert len(out) == sum(want)
    assert out["frame_idx"].to_pylist() == [i for w in want for i in range(w)]


def test_lang_id_batch_matches_scalar_edge_cases():
    """The vectorized lang-ID must be bit-identical to the scalar form,
    including the empty/CJK/tie/und rules."""
    from ulp_ray.functions.text import lang_id, lang_id_batch

    cases = [
        None,
        "",
        "   ",
        "the cat sat on the mat and it was good for the dog",
        "der hund ist nicht mit der katze und das ist ein problem",
        "el perro y el gato en la casa de la abuela no se ven",
        "le chien et le chat dans la maison de la grand-mere pour les",
        "这是一个中文句子，包含很多汉字字符的测试文本",
        "xyzzy plugh qwerty",          # no stopword hits -> und
        "the der",                      # en/de tie -> en
        "der el",                       # non-en tie -> lexicographic (de)
        "a! b? c.",
        "f\u00fcr f\u00fcr das el la",     # accented de stopwords (Unicode \\W)
        "para qu\u00e9 el d\u00eda de los", # accented es text
        "mix 中 of latin and 一点 cjk but below threshold " * 3,
    ]
    batch = lang_id_batch(pa.array(cases, pa.string())).to_pylist()
    scalar = [lang_id(t or "") for t in cases]
    assert batch == scalar


def test_quality_features_match_python_reference():
    """Vectorized stopword_ratio / mean_token_len equal the per-doc
    Python formulas exactly (same float64 arithmetic)."""
    from ulp_ray.functions.text import _LANG_STOPWORDS, quality_features

    texts = [
        None,
        "",
        "   ",
        "the quick brown fox",
        "on  double  spaces",
        " leading and trailing ",
        "xyzzy",
        "the the the",
        "nb\u00a0space the fox",          # U+00A0 is whitespace to str.split()
        "line\u2028sep of to",            # U+2028 too
    ]
    q = quality_features(pa.array(texts, pa.string()))
    stop = _LANG_STOPWORDS["en"]
    for i, t in enumerate(texts):
        toks = (t or "").lower().split()
        want_sw = sum(1 for x in toks if x in stop) / len(toks) if toks else 0.0
        want_ml = sum(len(x) for x in toks) / len(toks) if toks else 0.0
        assert q["stopword_ratio"][i].as_py() == round(want_sw, 6)
        assert q["mean_token_len"][i].as_py() == round(want_ml, 6)


def test_ppm_decode_real_roundtrip():
    """The PPM path is a REAL decoder: encode known pixels, decode, get
    the exact array back (incl. comment-bearing headers)."""
    import numpy as np

    from ulp_ray.stages.multimodal import _decode_ppm, encode_ppm

    img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    assert (_decode_ppm(encode_ppm(img)) == img).all()
    with_comment = b"P6\n# a comment\n3 2\n255\n" + img.tobytes()
    assert (_decode_ppm(with_comment) == img).all()


def test_image_decoder_uses_real_ppm_decode(ray_session):
    """ImageDecoder over the synthetic table: PPM rows report their TRUE
    dimensions and luma (not the stub's hash-seeded fake)."""
    import numpy as np
    import ray.data

    from ulp_ray.stages.multimodal import (
        decode_images,
        encode_ppm,
        make_synthetic_media_table,
    )

    img = np.full((4, 6, 3), 100, dtype=np.uint8)
    tbl = pa.table(
        {
            "media_id": pa.array([0], pa.int64()),
            "media_type": pa.array(["image/x-portable-pixmap"], pa.string()),
            "payload": pa.array([encode_ppm(img)], pa.binary()),
            "n_bytes": pa.array([0], pa.int64()),
        }
    )
    out = decode_images(ray.data.from_arrow(tbl)).take_all()
    assert out[0]["width"] == 6 and out[0]["height"] == 4
    assert out[0]["mean_luma"] == 100.0
    # and the synthetic table's image rows are genuinely decodable
    media = make_synthetic_media_table(30)
    rows = decode_images(ray.data.from_arrow(media)).take_all()
    assert len(rows) == 30


def test_png_roundtrip_real_pixels():
    """encode_png → _decode_png must reproduce the exact pixels (real
    dependency-free codec, not a stub)."""
    from ulp_ray.stages.multimodal import _decode_png, encode_png

    rng = np.random.default_rng(77)
    img = rng.integers(0, 256, (23, 17, 3), dtype=np.uint8)
    out = _decode_png(encode_png(img))
    assert out.dtype == np.uint8 and out.shape == (23, 17, 3)
    assert (out == img).all()
    # 1×1 edge
    one = rng.integers(0, 256, (1, 1, 3), dtype=np.uint8)
    assert (_decode_png(encode_png(one)) == one).all()


def test_png_all_filter_types_and_colors():
    """Hand-built IDAT streams exercising every scanline filter (Sub, Up,
    Average, Paeth) and color types 0/2/6, verified against an
    independent byte-at-a-time reference unfilter."""
    import struct
    import zlib

    from ulp_ray.stages.multimodal import _PNG_SIG, _decode_png, _png_chunk

    def build_png(w, h, ctype, ch, raw_lines):
        ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
        raw = b"".join(raw_lines)
        return (
            _PNG_SIG
            + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(raw))
            + _png_chunk(b"IEND", b"")
        )

    def ref_unfilter(w, h, ch, raw):  # straight from the PNG spec
        stride = w * ch
        out = bytearray()
        prev = bytes(stride)
        pos = 0
        for _ in range(h):
            ft = raw[pos]
            line = bytearray(raw[pos + 1 : pos + 1 + stride])
            pos += 1 + stride
            for x in range(stride):
                a = line[x - ch] if x >= ch else 0
                b = prev[x]
                c = prev[x - ch] if x >= ch else 0
                if ft == 1:
                    line[x] = (line[x] + a) & 0xFF
                elif ft == 2:
                    line[x] = (line[x] + b) & 0xFF
                elif ft == 3:
                    line[x] = (line[x] + ((a + b) >> 1)) & 0xFF
                elif ft == 4:
                    p = a + b - c
                    pred = (
                        a
                        if (abs(p - a) <= abs(p - b) and abs(p - a) <= abs(p - c))
                        else (b if abs(p - b) <= abs(p - c) else c)
                    )
                    line[x] = (line[x] + pred) & 0xFF
            out += line
            prev = bytes(line)
        return np.frombuffer(bytes(out), np.uint8).reshape(h, w, ch)

    rng = np.random.default_rng(5)
    for ctype, ch in [(0, 1), (2, 3), (6, 4)]:
        w, h = 7, 5
        lines = [
            bytes([ft]) + rng.integers(0, 256, w * ch, dtype=np.uint8).tobytes()
            for ft in (0, 1, 2, 3, 4)  # one row per filter type
        ]
        png = build_png(w, h, ctype, ch, lines)
        got = _decode_png(png)
        want = ref_unfilter(w, h, ch, b"".join(lines))
        if ctype == 0:
            want = np.repeat(want, 3, axis=2)
        elif ctype == 6:
            want = want[:, :, :3]
        assert (got == want).all(), (ctype, "filter mismatch")


def test_png_rejects_corruption_and_unsupported():
    import struct
    import zlib as z

    import pytest as pt

    from ulp_ray.stages.multimodal import _decode_png, encode_png

    rng = np.random.default_rng(3)
    png = bytearray(encode_png(rng.integers(0, 256, (4, 4, 3), dtype=np.uint8)))
    png[40] ^= 0xFF  # corrupt a data byte → CRC must catch it
    with pt.raises(ValueError, match="CRC"):
        _decode_png(bytes(png))
    with pt.raises(ValueError, match="not a PNG"):
        _decode_png(b"JUNK")


def test_image_decoder_decodes_real_png_rows(ray_session):
    """The actor-pool decode path reports true dimensions for PNG rows
    (proving the real codec runs, not the payload-hash stub)."""
    import ray.data

    from ulp_ray.stages.multimodal import decode_images, make_synthetic_media_table

    tbl = make_synthetic_media_table(40, seed=11)
    png_dims = {}
    for r in tbl.to_pylist():
        if r["media_type"] == "image/png":
            import struct as st

            w, h = st.unpack(">II", r["payload"][16:24])
            png_dims[r["media_id"]] = (w, h)
    assert png_dims  # the table contains PNG rows at all
    out = decode_images(ray.data.from_arrow(tbl)).take_all()
    for r in out:
        if r["media_id"] in png_dims:
            assert (r["width"], r["height"]) == png_dims[r["media_id"]]


def test_audio_featurizer_8bit_and_32bit_wav():
    """Review regression: sample width is honored (8-bit unsigned and
    32-bit PCM decode to the right duration; odd-length 8-bit does not
    crash the stage)."""
    import io
    import wave

    import numpy as np
    import pyarrow as pa

    def wav_bytes(data: bytes, width: int, rate: int) -> bytes:
        buf = io.BytesIO()
        with wave.open(buf, "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(width)
            w.setframerate(rate)
            w.writeframes(data)
        return buf.getvalue()

    u8 = (np.sin(np.arange(4001) / 5) * 100 + 128).astype(np.uint8)  # odd length
    i32 = (np.sin(np.arange(8000) / 5) * 2**30).astype(np.int32)
    batch = pa.table(
        {
            "media_id": pa.array([1, 2], pa.int64()),
            "payload": pa.array(
                [wav_bytes(u8.tobytes(), 1, 4001), wav_bytes(i32.tobytes(), 4, 8000)],
                pa.binary(),
            ),
        }
    )
    from ulp_ray.stages.multimodal import AudioFeaturizer

    out = AudioFeaturizer()(batch)
    durs = out["duration_ms"].to_pylist()
    assert durs[0] == 1000  # 4001 samples at 4001 Hz (8-bit honored)
    assert durs[1] == 1000  # 8000 samples at 8 kHz (32-bit honored)
    assert all(r > 0 for r in out["rms"].to_pylist())


def test_resize_image_area_and_nearest():
    """Downscale is exact area averaging (constant blocks stay exact);
    upscale is nearest neighbor; both deterministic."""
    import numpy as np

    from ulp_ray.stages.multimodal import resize_image

    # 4x4 image of four 2x2 constant quadrants -> 2x2 of those values
    img = np.zeros((4, 4, 3), dtype=np.uint8)
    img[:2, :2] = 10
    img[:2, 2:] = 20
    img[2:, :2] = 30
    img[2:, 2:] = 40
    small = resize_image(img, 2, 2)
    assert small.shape == (2, 2, 3)
    assert small[0, 0, 0] == 10 and small[0, 1, 0] == 20
    assert small[1, 0, 0] == 30 and small[1, 1, 0] == 40
    # upscale back: nearest neighbor repeats each pixel
    big = resize_image(small, 4, 4)
    assert (big == img).all()
    # no-op passthrough
    assert resize_image(img, 4, 4) is img
    # non-divisible downscale stays in range and shape
    odd = resize_image(img, 3, 3)
    assert odd.shape == (3, 3, 3) and odd.dtype == np.uint8


def test_image_resizer_stage_roundtrip(ray_session):
    """Actor-pool resize: decode -> area resize -> PNG re-encode; the
    resized payloads decode back to the requested dimensions and the
    stage composes with the decoder downstream."""
    import ray.data

    from ulp_ray.stages.multimodal import (
        _decode_png,
        make_synthetic_media_table,
        resize_images,
    )

    import pyarrow.compute as pc

    t = make_synthetic_media_table(8, seed=3)
    imgs = t.filter(pc.starts_with(t["media_type"], "image/"))
    # two blocks, so the pool can launch both of its actors
    ds = ray.data.from_arrow(imgs, override_num_blocks=2)
    out = resize_images(ds, 16, 12, concurrency=2, batch_size=4).to_pandas()
    assert len(out) == len(imgs)
    for payload, nb in zip(out["payload"], out["n_bytes"]):
        arr = _decode_png(bytes(payload))
        assert arr.shape == (16, 12, 3)
        assert nb == len(payload)  # metadata refreshed, not stale
    assert set(out["height"]) == {16} and set(out["width"]) == {12}
    # the payload is re-encoded PNG — media_type must say so
    assert set(out["media_type"]) == {"image/png"}


def test_resize_normalizes_grayscale_and_rgba():
    """_to_rgb bridges 2-D grayscale and RGBA arrays into the
    3-channel resize/encode path (direct resize_image callers may hold
    raw decoder output from other libraries)."""
    import numpy as np
    import pytest

    from ulp_ray.stages.multimodal import _to_rgb, resize_image

    gray = (np.arange(24, dtype=np.uint8)).reshape(6, 4)
    rgb = _to_rgb(gray)
    assert rgb.shape == (6, 4, 3)
    assert (rgb[..., 0] == gray).all() and (rgb[..., 2] == gray).all()
    out = resize_image(_to_rgb(gray), 3, 2)
    assert out.shape == (3, 2, 3)

    rgba = np.zeros((4, 4, 4), dtype=np.uint8)
    rgba[..., 3] = 255
    assert _to_rgb(rgba).shape == (4, 4, 3)
    with pytest.raises(ValueError, match="channel count"):
        _to_rgb(np.zeros((2, 2, 5), dtype=np.uint8))
