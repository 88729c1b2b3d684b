"""Each output check of the benchmark fires on the fault it guards against.

    python3 -m pytest crawlbench/test_checks.py -q
"""

import numpy as np
import pandas as pd

from crawlbench import checks


def _order() -> pd.DataFrame:
    urls = [
        "https://a.gov/p0.html",
        "https://a.gov/p1.html",
        "https://b.gov/p0.html",
        "https://a.gov/p2.html",
        "https://b.gov/p1.html",
    ]
    return pd.DataFrame(
        {
            "round": [0, 0, 0, 1, 1],
            "depth": [0, 1, 0, 1, 1],
            "seq": [0, 0, 1, 1, 2],
            "url_hash": np.arange(100, 105, dtype=np.uint64),
            "status": [200, 200, 404, 200, 200],
            "url": urls,
            "domain": [u.split("/")[2] for u in urls],
        }
    )


def _budget(domain: str) -> int:
    return 2


def _allowed(url: str) -> bool:
    return "/private" not in url


def _images():
    golden = pd.DataFrame(
        {"image_id": ["img-0", "img-1"], "caption": ["map", "seal"], "phash": [-5, 7]}
    )
    landed = pd.DataFrame(
        {
            "image_id": ["img-0", "img-1"],
            "caption": ["map", "seal"],
            "phash_computed": np.array([-5, 7], dtype=np.int64).view(np.uint64),
        }
    )
    return landed, golden


def _digests(order, seen, denied):
    return {
        "order": checks.digest_order(order),
        "seen": checks.digest_seen(seen),
        "denied": checks.digest_denied(denied),
    }


def test_clean_crawl_passes_every_check():
    order = _order()
    seen = set(order["url_hash"].tolist())
    emitted = order[order["status"] == 200][["url_hash"]]
    landed, golden = _images()
    assert checks.check_fetch_once(order, seen, len(order), 0) == []
    assert checks.check_politeness(order, _budget, _allowed, depth_limit=3) == []
    assert checks.check_emitted(emitted, order) == []
    assert checks.check_images(landed, golden, {"img-0", "img-1"}) == []
    ref = _digests(order, seen, {("https://a.gov/x.css", "extension")})
    assert checks.check_digests(ref, dict(ref)) == []


def test_duplicated_order_row_fires_check1():
    order = _order()
    seen = set(order["url_hash"].tolist())
    dup = pd.concat([order, order.iloc[[3]]], ignore_index=True)
    fails = checks.check_fetch_once(dup, seen, len(dup), 0)
    assert any("fetched more than once" in f for f in fails)


def test_undrained_frontier_fires_check1():
    order = _order()
    fails = checks.check_fetch_once(order, set(order["url_hash"].tolist()), len(order), 7)
    assert any("not drained" in f for f in fails)


def test_over_budget_grant_fires_check2():
    order = _order()
    extra = order.iloc[[0]].assign(seq=9, url_hash=np.uint64(999), url="https://a.gov/p9.html")
    fails = checks.check_politeness(
        pd.concat([order, extra], ignore_index=True), _budget, _allowed, depth_limit=3
    )
    assert any("over budget" in f for f in fails)


def test_disallowed_and_too_deep_fetches_fire_check2():
    order = _order()
    order.loc[1, "url"] = "https://a.gov/private/p1.html"
    order.loc[2, "depth"] = 4
    fails = checks.check_politeness(order, _budget, _allowed, depth_limit=3)
    assert any("robots-disallowed" in f for f in fails)
    assert any("deeper than depth_limit" in f for f in fails)


def test_emitting_a_404_fires_check3():
    order = _order()
    fails = checks.check_emitted(order[["url_hash"]], order)
    assert any("not status 200" in f for f in fails)


def test_flipped_phash_fires_check4():
    landed, golden = _images()
    landed.loc[1, "phash_computed"] = landed.loc[1, "phash_computed"] ^ np.uint64(1)
    fails = checks.check_images(landed, golden, {"img-0", "img-1"})
    assert any("pHash" in f for f in fails)


def test_missing_image_fires_check4():
    landed, golden = _images()
    fails = checks.check_images(landed.iloc[:1], golden, {"img-0", "img-1"})
    assert any("landed rows" in f for f in fails)


def test_resumed_order_differing_from_reference_fires_check5():
    order = _order()
    seen = set(order["url_hash"].tolist())
    reference = _digests(order, seen, set())
    resumed = order.copy()
    # the resumed run fetched the two round-1 URLs in swapped order
    resumed.loc[[3, 4], "seq"] = [2, 1]
    fails = checks.check_digests(_digests(resumed, seen, set()), reference)
    assert fails == ["check5: order digest differs from the reference"]
