def drain(queue, cfg, node):
    total = 0
    for item in queue.items:
        total += cfg.scale * item + cfg.scale
        node.weight = node.weight + item
    while queue.head is not None and queue.head is not queue.tail:
        queue.pop()
    return total
