"""Structured JSON logging for crawl jobs.

Reference: the JsonLogging Scrapy extension at
/root/reference/search_gov_crawler/search_gov_spiders/extensions/
json_logging.py — a pythonjsonlogger formatter with a custom default
serializer for Spider/Crawler objects, installed by (a) shadowing any
existing FileHandler with a ``<name>.json`` twin, (b) replacing plain
StreamHandlers with a JSON one, and (c) logging the spider's full
argument set at spider_opened (:110-139).

This analog uses only the stdlib (pythonjsonlogger is not in the
container): a ``logging.Formatter`` that emits one JSON object per
record with the reference's field set (asctime/name/levelname/message,
json_logging.py:10), the same handler-swap installation dance, and a
``log_job_start`` twin of ``spider_opened`` that serializes our
:class:`~searchgov_spider_ray.sources.crawl_sites.CrawlSite` the way
``search_gov_default`` serializes a Spider (json_logging.py:14-29).
Control-plane only — never on the data path.
"""

from __future__ import annotations

import json
import logging
from typing import Any

SITEMAP_START_URLS = "Generated from Sitemap"


def search_gov_default(obj: Any) -> Any:
    """JSON ``default=`` hook mirroring the reference's Spider/Crawler
    serializer (json_logging.py:14-33) for our CrawlSite analog."""
    # duck-typed so callers can pass any site-shaped object without an
    # import cycle on sources.crawl_sites
    if hasattr(obj, "allowed_domains") and hasattr(obj, "starting_urls"):
        return {
            "name": getattr(obj, "name", None),
            "spider_id": getattr(obj, "job_id", None),
            "allow_query_string": getattr(obj, "allow_query_string", None),
            "allowed_domains": list(getattr(obj, "allowed_domains", [])),
            "start_urls": (
                SITEMAP_START_URLS
                if getattr(obj, "prevent_follow", False)
                else list(getattr(obj, "starting_urls", []))
            ),
            "output_target": getattr(obj, "output_target", None),
            "depth_limit": getattr(obj, "depth_limit", None),
            "deny_paths": list(getattr(obj, "deny_paths", [])),
        }
    return repr(obj)


class JsonFormatter(logging.Formatter):
    """One JSON object per record with the reference's field set; any
    non-serializable value routes through :func:`search_gov_default`."""

    def format(self, record: logging.LogRecord) -> str:
        out = {
            "asctime": self.formatTime(record),
            "name": record.name,
            "levelname": record.levelname,
            "message": record.getMessage(),
        }
        if record.exc_info:
            out["exc_info"] = self.formatException(record.exc_info)
        # carry record extras the way pythonjsonlogger does
        for key, val in record.__dict__.items():
            if key not in out and key not in _STD_RECORD_FIELDS:
                out[key] = val
        return json.dumps(out, default=search_gov_default)


_STD_RECORD_FIELDS = frozenset(
    logging.LogRecord("x", 0, "x", 0, "", (), None).__dict__
) | {"message", "asctime"}


class SearchGovSpiderStreamHandler(logging.StreamHandler):
    """StreamHandler with our level and JSON formatter
    (reference json_logging.py:36-44)."""

    def __init__(self, log_level: int | str, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.setLevel(log_level)
        self.setFormatter(JsonFormatter())


class SearchGovSpiderFileHandler(logging.FileHandler):
    """FileHandler with our level and JSON formatter
    (reference json_logging.py:47-70)."""

    def __init__(self, log_level: int | str, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.setLevel(log_level)
        self.setFormatter(JsonFormatter())

    @classmethod
    def from_handler(
        cls, handler: logging.FileHandler, log_level: int | str
    ) -> "SearchGovSpiderFileHandler":
        """JSON twin of an existing FileHandler — same file options,
        ``.json``-suffixed path (reference from_hanlder, :56-70)."""
        new_filename = (
            handler.baseFilename
            if handler.baseFilename == "/dev/null"
            else f"{handler.baseFilename}.json"
        )
        return cls(
            log_level=log_level,
            filename=new_filename,
            mode=handler.mode,
            encoding=handler.encoding,
            delay=handler.delay,
            errors=handler.errors,
        )


class JsonLogging:
    """Install JSON handlers on the root logger (reference
    json_logging.py:73-108): shadow FileHandlers with .json twins,
    replace plain StreamHandlers with one JSON stream handler."""

    def __init__(self, log_level: int | str = "INFO"):
        self.file_handler_enabled = False
        self.stream_handler_enabled = False
        self.log_level = log_level
        self._add_json_handlers()

    def _add_json_handlers(self) -> None:
        root_logger = logging.getLogger()
        root_logger.setLevel(self.log_level)

        if not self.file_handler_enabled:
            # the guard must look at the ROOT LOGGER's state, not this
            # instance's: a second JsonLogging() in the same process
            # would otherwise twin the first instance's .json handler
            # (doubled log lines) and stack a .json.json handler on top
            file_handlers = [
                h
                for h in root_logger.handlers
                if isinstance(h, logging.FileHandler)
                and not isinstance(h, SearchGovSpiderFileHandler)
                and not str(getattr(h, "baseFilename", "")).endswith(".json")
            ]
            existing_json = {
                str(getattr(h, "baseFilename", ""))
                for h in root_logger.handlers
                if isinstance(h, SearchGovSpiderFileHandler)
            }
            for file_handler in file_handlers:
                twin = SearchGovSpiderFileHandler.from_handler(
                    handler=file_handler, log_level=self.log_level
                )
                if str(getattr(twin, "baseFilename", "")) in existing_json:
                    twin.close()
                    continue
                root_logger.addHandler(twin)
                self.file_handler_enabled = True

        if not self.stream_handler_enabled:
            for handler in [
                h for h in root_logger.handlers if h.__class__ == logging.StreamHandler
            ]:
                root_logger.removeHandler(handler)
            self.stream_handler_enabled = True

        if not any(
            isinstance(h, SearchGovSpiderStreamHandler) for h in root_logger.handlers
        ):
            root_logger.addHandler(SearchGovSpiderStreamHandler(log_level=self.log_level))

    def log_job_start(self, site: Any) -> None:
        """Twin of the reference's spider_opened log line
        (json_logging.py:123-139): re-install handlers, then log the
        job's full argument set."""
        self._add_json_handlers()
        logging.getLogger(getattr(site, "name", "crawl")).info(
            "Starting job %s (spider_id %s) with following args: "
            "allowed_domains=%s start_urls=%s output_target=%s "
            "depth_limit=%s deny_paths=%s",
            getattr(site, "name", None),
            getattr(site, "job_id", None),
            ",".join(getattr(site, "allowed_domains", [])),
            SITEMAP_START_URLS
            if getattr(site, "prevent_follow", False)
            else ",".join(getattr(site, "starting_urls", [])),
            getattr(site, "output_target", None),
            getattr(site, "depth_limit", None),
            getattr(site, "deny_paths", None),
        )
