"""Read-side helpers the results tests share (over ``ResultsDB.query``)."""


def metrics_of(db, run_key):
    """``{metric name: value}`` of one indexed run."""
    return dict(db.query(
        "SELECT m.name, m.value FROM metrics m "
        "JOIN runs r ON r.id = m.run_id WHERE r.run_key = ?", (run_key,))[1])


def run_keys(db):
    """Every indexed run key."""
    return {key for (key,) in db.query("SELECT run_key FROM runs")[1]}
