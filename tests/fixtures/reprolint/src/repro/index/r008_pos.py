"""R008 positive: recovery paths absorbing failures without recording."""


def load_shard(path, shards):
    try:
        return shards[path]
    except KeyError:  # line 7: flagged (absorbed, nothing recorded)
        return None


def scatter(jobs):
    results = []
    for job in jobs:
        try:
            results.append(job())
        except Exception:  # line 16: flagged (shard failure vanishes)
            continue
    return results


def probe(tracker, si, shard):
    try:
        return shard.search()
    except Exception as exc:  # line 24: flagged (no seam by that name)
        tracker.record_failure(si, exc)
        return None
