"""The stub endpoint speaks the program's HTTP transport, stage by stage."""

import json
import urllib.error
import urllib.request

import pytest

import stub
from godspell import annotate

TEXTS = ["God healed the child at the well.", "The mare threw a shoe.", "x"]


@pytest.fixture
def endpoint():
    with stub.StubEndpoint(service_s=0.0) as s:
        yield s


@pytest.mark.parametrize("template", ["act_of_god", "supernatural_check", "affect", "impact"])
def test_transport_and_parser_accept_every_stage(endpoint, template):
    registry = annotate.default_registry()
    tmpl = registry.get(template, "v1")
    config = annotate.ModelConfig(model="m", endpoint=endpoint.url)
    for text in TEXTS:
        raw = annotate.http_transport(config, annotate.render_prompt(tmpl, text), tmpl.schema)
        fields = annotate.parse_response(raw, tmpl.schema)
        stage = stub.stage_of(tmpl.schema.names())
        assert fields == stub.rule(stage, text)
    assert endpoint.total_calls == len(TEXTS)
    assert endpoint.dup_calls == 0


def test_counts_duplicates_and_resets(endpoint):
    tmpl = annotate.default_registry().get("act_of_god", "v1")
    config = annotate.ModelConfig(model="m", endpoint=endpoint.url)
    prompt = annotate.render_prompt(tmpl, TEXTS[0])
    for _ in range(3):
        annotate.http_transport(config, prompt, tmpl.schema)
    assert (endpoint.total_calls, endpoint.dup_calls) == (3, 2)
    endpoint.reset()
    annotate.http_transport(config, prompt, tmpl.schema)
    assert (endpoint.total_calls, endpoint.dup_calls) == (1, 0)


@pytest.mark.parametrize("path,body,status", [
    ("/api/other", b"{}", 404),
    ("/api/generate", b"not json", 400),
    ("/api/generate", json.dumps({"model": "m", "prompt": "p"}).encode(), 400),
])
def test_rejects_bad_requests(endpoint, path, body, status):
    request = urllib.request.Request(endpoint.url + path, data=body)
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10)
    assert err.value.code == status
    assert endpoint.total_calls == 0
