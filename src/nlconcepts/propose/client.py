"""Minimal JSON-over-HTTPS client for an OpenAI-compatible LM API.

Credentials come from the INDUCT_API_KEY environment variable; the
endpoint and model name come from configuration. The retry policy is
the module's own: a request is tried up to MAX_RETRIES (5) times, each
attempt waiting at most TIMEOUT_S (120 s), with jittered exponential
backoff starting at BACKOFF_S (1 s) between attempts.
`requests` is imported only by a client that makes its own session or
posts a request, so a replay-only run never loads it.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional

API_KEY_VAR = "INDUCT_API_KEY"
MAX_RETRIES, BACKOFF_S, TIMEOUT_S = 5, 1.0, 120.0
# the sampling parameters a chat completion sends, in payload order
_PAYLOAD_KEYS = ("temperature", "n", "max_tokens", "stop", "logprobs")


class BackendUnavailable(RuntimeError):
    pass


class MissingLogprobSupport(RuntimeError):
    pass


class ChatClient:
    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: Optional[str] = None,
        session=None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_VAR, "")
        if session is None:
            import requests

            session = requests.Session()
        self.session = session

    def _post(self, path: str, payload: Dict) -> Dict:
        import requests

        url = self.endpoint.rstrip("/") + path
        headers = {"Authorization": f"Bearer {self.api_key}"}
        last_error = None
        for attempt in range(MAX_RETRIES):
            try:
                response = self.session.post(url, json=payload, headers=headers, timeout=TIMEOUT_S)
                if response.status_code == 200:
                    return response.json()
                last_error = f"HTTP {response.status_code}: {response.text[:200]}"
            except requests.RequestException as exc:
                last_error = str(exc)
            if attempt + 1 < MAX_RETRIES:
                delay = BACKOFF_S * (2**attempt) * (0.5 + random.random())
                time.sleep(delay)
        raise BackendUnavailable(f"request to {url} failed: {last_error}")

    def complete(self, prompt: str, params: Dict) -> List[Dict]:
        """Chat completion at a request's sampling parameters `params`.
        Its temperature, n, max_tokens (512 when absent), stop and
        logprobs are sent when present; any other key, such as seed or
        mode, is not. Returns [{"text": str, "logprob": float|None}]."""
        sampling = {"max_tokens": 512, **params}
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            **{key: sampling[key] for key in _PAYLOAD_KEYS if key in sampling},
        }
        data = self._post("/chat/completions", payload)
        out = []
        for choice in data["choices"]:
            text = choice["message"]["content"]
            logprob = None
            lp = choice.get("logprobs")
            if lp and lp.get("content"):
                logprob = float(sum(tok["logprob"] for tok in lp["content"]))
            out.append({"text": text, "logprob": logprob})
        return out

    def score(self, prefix: str, continuation: str) -> float:
        """Log-probability of `continuation` given `prefix`.

        Uses an echo+logprobs completions call; raises
        MissingLogprobSupport if the endpoint does not report token
        log-probabilities with offsets.
        """
        full = prefix + continuation
        payload = {
            "model": self.model,
            "prompt": full,
            "max_tokens": 0,
            "echo": True,
            "logprobs": 0,
        }
        data = self._post("/completions", payload)
        try:
            lp = data["choices"][0]["logprobs"]
            offsets = lp["text_offset"]
            token_logprobs = lp["token_logprobs"]
        except (KeyError, IndexError, TypeError):
            raise MissingLogprobSupport(
                "endpoint did not return token log-probabilities"
            )
        cut = len(prefix)
        total = 0.0
        for offset, token_lp in zip(offsets, token_logprobs):
            if offset >= cut and token_lp is not None:
                total += float(token_lp)
        return total
