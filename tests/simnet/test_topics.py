"""Tests for topic routing (the pub/sub substrate of the invalidation bus)."""

from repro.simnet import Network


def collector(network, address):
    received = []
    node = network.node(address)
    node.on_message(received.append)
    return received


class TestTopicRouting:
    def test_publish_fans_out_to_all_subscribers(self):
        network = Network(seed=1)
        inboxes = [collector(network, f"sub-{i}") for i in range(3)]
        network.node("pub")
        for index in range(3):
            network.subscribe("events", f"sub-{index}")
        sent = network.publish("pub", "events", "evt", "<E/>")
        assert sent == 3
        network.run()
        assert all(len(inbox) == 1 for inbox in inboxes)
        assert inboxes[0][0].kind == "evt"
        assert inboxes[0][0].headers["topic"] == "events"

    def test_publisher_does_not_receive_own_publication(self):
        network = Network(seed=1)
        inbox = collector(network, "pub")
        network.subscribe("events", "pub")
        assert network.publish("pub", "events", "evt", "<E/>") == 0
        network.run()
        assert inbox == []

    def test_duplicate_subscription_ignored(self):
        network = Network(seed=1)
        collector(network, "sub")
        network.node("pub")
        network.subscribe("t", "sub")
        network.subscribe("t", "sub")
        assert network.subscribers("t") == ["sub"]
        assert network.publish("pub", "t", "evt") == 1

    def test_publication_subject_to_partition(self):
        network = Network(seed=1)
        inbox = collector(network, "sub")
        network.node("pub")
        network.subscribe("t", "sub")
        network.partition("pub", "sub")
        network.publish("pub", "t", "evt", "<E/>")
        network.run()
        assert inbox == []
        assert network.metrics.messages_dropped == 1

    def test_empty_topic_publishes_nothing(self):
        network = Network(seed=1)
        network.node("pub")
        assert network.publish("pub", "nobody-listens", "evt") == 0

    def test_topic_log_records_fanout(self):
        network = Network(seed=1)
        collector(network, "a")
        collector(network, "b")
        network.node("pub")
        network.subscribe("t", "a")
        network.subscribe("t", "b")
        network.publish("pub", "t", "evt", "<E/>")
        assert len(network.topic_log) == 1
        event = network.topic_log[0]
        assert event.topic == "t"
        assert event.publisher == "pub"
        assert event.subscriber_count == 2

    def test_each_subscriber_pays_its_own_link(self):
        network = Network(seed=1)
        collector(network, "near")
        collector(network, "far")
        network.node("pub")
        from repro.simnet import Link

        network.set_link("pub", "near", Link(latency=0.001))
        network.set_link("pub", "far", Link(latency=0.5))
        network.subscribe("t", "near")
        network.subscribe("t", "far")
        network.publish("pub", "t", "evt", "<E/>")
        executed_early = network.run(until=0.01)
        assert executed_early == 1  # only the near delivery
        network.run()
        assert network.metrics.messages_delivered == 2
