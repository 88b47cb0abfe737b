def padded(rows, k):
    total = 0
    for row in rows:  # repro-lint: disable=REPRO016
        pad = [k, k]
        for _ in row:
            tail = [k]
            total += pad[0] + tail[0]
    for row in rows:
        again = [k, k]
        total += again[0] + row
    return total
