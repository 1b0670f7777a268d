"""R008 negative: recovery paths that record, re-raise, or convert."""


def resolve(future, shard):
    try:
        future.set_result(shard.search())
    except Exception as exc:
        future.set_exception(exc)  # the failure travels to the waiter


def verify(path, issues):
    def record_issue(kind, message):
        issues.append((kind, message))

    try:
        return path.read_bytes()
    except OSError as exc:
        record_issue("missing", str(exc))  # recorded as a scrub finding
        return None


def strict_load(fn):
    try:
        return fn()
    except ValueError as exc:
        raise RuntimeError("corrupt shard") from exc  # converted, not lost


def refuse(front, exc):
    try:
        raise exc
    except KeyError as err:
        front.count_refusal(err)  # counted refusal
        return None
