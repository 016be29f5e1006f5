"""Text analysis functions (``ulp_ray.functions.text``)."""

import pyarrow as pa

from ulp_ray.functions.text import (
    bpe_ish_token_count,
    fingerprint64,
    fingerprint_batch,
    lang_id,
    quality_features,
    whitespace_token_count,
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
