#include "fabric/snapshot.hh"

#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/log.hh"
#include "fabric/claim.hh"

// The ops dashboard for `tempo_sweep --dashboard`: one self-contained
// page (no external assets, so file:// works) with the snapshot
// inlined, reloaded every 2 s. Visual language: status colors are
// reserved and always paired with a label+count (never color alone);
// all text wears the text tokens; dark mode is its own palette selected
// via prefers-color-scheme.

namespace tempo::fabric {

namespace {

constexpr std::string_view kSlot = "@SNAPSHOT@";
constexpr std::string_view kPage = R"HTML(<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<meta name="viewport" content="width=device-width,initial-scale=1">
<title>tempo sweep</title>
<style>
:root{
  --surface:#fcfcfb;--raised:#f4f3f1;--border:#e3e2de;
  --text:#0b0b0b;--text2:#52514e;
  --ok:#008300;--failed:#e34948;--inflight:#2a78d6;--pending:#c9c8c3;
}
@media (prefers-color-scheme:dark){:root{
  --surface:#1a1a19;--raised:#242423;--border:#3a3936;
  --text:#ffffff;--text2:#c3c2b7;
  --ok:#008300;--failed:#e66767;--inflight:#3987e5;--pending:#3a3936;
}}
*{box-sizing:border-box}
body{margin:0;padding:20px;background:var(--surface);color:var(--text);
  font:14px/1.45 system-ui,-apple-system,"Segoe UI",sans-serif;
  max-width:1080px;margin-inline:auto}
h1{font-size:18px;font-weight:650;margin:0}
header{display:flex;align-items:baseline;gap:12px;margin-bottom:16px}
.sub{color:var(--text2);font-size:12px}
.bar{display:flex;gap:2px;height:14px;border-radius:4px;overflow:hidden;
  background:var(--raised);margin-bottom:8px}
.bar span{height:100%;min-width:0;transition:flex-grow .4s}
.seg-ok{background:var(--ok)} .seg-failed{background:var(--failed)}
.seg-inflight{background:var(--inflight)} .seg-pending{background:var(--pending)}
.legend{display:flex;flex-wrap:wrap;gap:14px;color:var(--text2);
  font-size:12px;margin-bottom:18px}
.legend i{display:inline-block;width:9px;height:9px;border-radius:2px;
  margin-right:5px;vertical-align:baseline}
.legend b{color:var(--text);font-weight:600;font-variant-numeric:tabular-nums}
.tiles{display:grid;grid-template-columns:repeat(auto-fit,minmax(128px,1fr));
  gap:10px;margin-bottom:18px}
.tile{background:var(--raised);border:1px solid var(--border);
  border-radius:6px;padding:10px 12px}
.tile .v{font-size:22px;font-weight:650;font-variant-numeric:tabular-nums}
.tile .k{color:var(--text2);font-size:11px;text-transform:uppercase;
  letter-spacing:.04em;margin-top:2px}
.cards{display:grid;grid-template-columns:1fr 1fr;gap:10px;margin-bottom:18px}
@media (max-width:760px){.cards{grid-template-columns:1fr}}
.card{background:var(--raised);border:1px solid var(--border);
  border-radius:6px;padding:12px}
.card h2{font-size:12px;font-weight:600;color:var(--text2);margin:0 0 8px;
  text-transform:uppercase;letter-spacing:.04em}
svg{display:block;width:100%;height:64px}
.spark-line{fill:none;stroke:var(--inflight);stroke-width:2;
  vector-effect:non-scaling-stroke}
.spark-now{font-variant-numeric:tabular-nums;font-weight:600}
table{width:100%;border-collapse:collapse;font-variant-numeric:tabular-nums}
th{color:var(--text2);font-size:11px;font-weight:600;text-align:left;
  text-transform:uppercase;letter-spacing:.04em;padding:4px 8px;
  border-bottom:1px solid var(--border)}
td{padding:5px 8px;border-bottom:1px solid var(--border)}
tr:last-child td{border-bottom:0}
td.num,th.num{text-align:right}
.dot{display:inline-block;width:8px;height:8px;border-radius:50%;
  margin-right:6px}
.live .dot{background:var(--ok)} .stale .dot{background:var(--failed)}
#fails{list-style:none;margin:0;padding:0;max-height:220px;overflow:auto}
#fails li{padding:5px 0;border-bottom:1px solid var(--border);
  font-size:12px;overflow-wrap:anywhere}
#fails li:last-child{border-bottom:0}
#fails code{background:var(--surface);border:1px solid var(--border);
  border-radius:3px;padding:1px 4px;font-size:11px}
#fails .st{color:var(--failed);font-weight:600;margin:0 6px}
.empty{color:var(--text2);font-size:12px}
</style>
</head>
<body>
<header>
  <h1>tempo sweep <span id="sweep" class="sub"></span></h1>
  <span id="upd" class="sub"></span>
</header>

<div class="bar" aria-hidden="true">
  <span class="seg-ok" id="b-ok"></span>
  <span class="seg-failed" id="b-failed"></span>
  <span class="seg-inflight" id="b-inflight"></span>
  <span class="seg-pending" id="b-pending"></span>
</div>
<div class="legend">
  <span><i class="seg-ok"></i>ok <b id="l-ok">0</b></span>
  <span><i class="seg-failed"></i>failed <b id="l-failed">0</b></span>
  <span><i class="seg-inflight"></i>in flight <b id="l-inflight">0</b></span>
  <span><i class="seg-pending"></i>pending <b id="l-pending">0</b></span>
</div>

<section class="tiles">
  <div class="tile"><div class="v" id="t-done">&ndash;</div><div class="k">points done</div></div>
  <div class="tile"><div class="v" id="t-eps">&ndash;</div><div class="k">events / s</div></div>
  <div class="tile"><div class="v" id="t-pps">&ndash;</div><div class="k">points / s</div></div>
  <div class="tile"><div class="v" id="t-retries">&ndash;</div><div class="k">retries</div></div>
  <div class="tile"><div class="v" id="t-elapsed">&ndash;</div><div class="k">elapsed</div></div>
  <div class="tile"><div class="v" id="t-eta">&ndash;</div><div class="k">eta</div></div>
</section>

<section class="cards">
  <div class="card">
    <h2>throughput <span class="spark-now" id="spark-now"></span></h2>
    <svg viewBox="0 0 300 60" preserveAspectRatio="none" role="img"
         aria-label="events per second over time">
      <polyline class="spark-line" id="spark" points=""></polyline>
    </svg>
  </div>
  <div class="card">
    <h2>failures</h2>
    <ul id="fails"><li class="empty">none</li></ul>
  </div>
</section>

<div class="card">
  <h2>workers</h2>
  <table>
    <thead><tr>
      <th>worker</th><th>liveness</th>
      <th class="num">ok</th><th class="num">failed</th>
      <th class="num">in flight</th><th class="num">events/s</th>
      <th class="num">heartbeat</th>
    </tr></thead>
    <tbody id="workers">
      <tr><td colspan="7" class="empty">no workers yet</td></tr>
    </tbody>
  </table>
</div>

<script type="application/json" id="snapshot">@SNAPSHOT@</script>
<script>
"use strict";
const $ = id => document.getElementById(id);
// Each reload is a fresh page, so the sparkline's [elapsed, ev/s]
// samples live in sessionStorage, one list per sweep label.
function history(s){
  const key = "tempo-spark:" + (s.sweep || "");
  const sample = [s.elapsed_sec, s.events_per_sec || 0];
  try {
    const h = JSON.parse(sessionStorage.getItem(key)) || [];
    if (!h.length || h[h.length-1][0] !== sample[0]) h.push(sample);
    sessionStorage.setItem(key, JSON.stringify(h.slice(-150)));
    return h.slice(-150).map(p => p[1]);
  } catch (e) {
    return [sample[1]]; // storage unavailable: no history
  }
}
function fmtN(x){
  if (x == null || !isFinite(x)) return "–";
  if (x >= 1e9) return (x/1e9).toFixed(1)+"G";
  if (x >= 1e6) return (x/1e6).toFixed(1)+"M";
  if (x >= 1e3) return (x/1e3).toFixed(1)+"k";
  return Number.isInteger(x) ? String(x) : x.toFixed(1);
}
function fmtDur(s){
  if (s == null || !isFinite(s) || s < 0) return "–";
  s = Math.round(s);
  if (s < 60) return s+"s";
  if (s < 3600) return Math.floor(s/60)+"m "+(s%60)+"s";
  return Math.floor(s/3600)+"h "+Math.floor(s%3600/60)+"m";
}
function esc(t){
  const d = document.createElement("div");
  d.textContent = t == null ? "" : String(t);
  return d.innerHTML;
}
function seg(id, n, total){
  $(id).style.flexGrow = total > 0 ? n/total : 0;
}
function render(s){
  const failedAll = (s.failed|0) + (s.timed_out|0);
  const done = (s.ok|0) + failedAll;
  $("sweep").textContent = s.sweep ? "· " + s.sweep : "";
  $("upd").textContent = "loaded " + new Date().toLocaleTimeString();
  seg("b-ok", s.ok, s.points); seg("b-failed", failedAll, s.points);
  seg("b-inflight", s.in_flight, s.points);
  seg("b-pending", s.pending, s.points);
  $("l-ok").textContent = fmtN(s.ok);
  $("l-failed").textContent = fmtN(failedAll);
  $("l-inflight").textContent = fmtN(s.in_flight);
  $("l-pending").textContent = fmtN(s.pending);
  $("t-done").textContent = fmtN(done) + " / " + fmtN(s.points);
  $("t-eps").textContent = fmtN(s.events_per_sec);
  $("t-pps").textContent = fmtN(s.points_per_sec);
  $("t-retries").textContent = fmtN(s.retries);
  $("t-elapsed").textContent = fmtDur(s.elapsed_sec);
  $("t-eta").textContent = done >= s.points ? "done" : fmtDur(s.eta_sec);

  const hist = history(s);
  const peak = Math.max(1, ...hist);
  $("spark").setAttribute("points", hist.map((v,i) =>
    (hist.length < 2 ? 150 : i*300/(hist.length-1)).toFixed(1) + "," +
    (56 - v/peak*52).toFixed(1)).join(" "));
  $("spark-now").textContent = fmtN(s.events_per_sec) + " ev/s";

  const fails = s.failures || [];
  $("fails").innerHTML = fails.length === 0
    ? '<li class="empty">none</li>'
    : fails.map(f =>
        "<li><code>" + esc(f.digest) + "</code>" +
        '<span class="st">' + esc(f.status) + "</span>" +
        esc(f.error) + "</li>").join("");

  const workers = s.workers || [];
  $("workers").innerHTML = workers.length === 0
    ? '<tr><td colspan="7" class="empty">no workers yet</td></tr>'
    : workers.map(w => {
        const cls = w.alive ? "live" : "stale";
        const word = w.alive ? "live" : "stale";
        const hb = (w.heartbeat_age_sec == null || w.heartbeat_age_sec < 0)
          ? "never" : w.heartbeat_age_sec.toFixed(1) + "s ago";
        const inflight = Array.isArray(w.in_flight) ? w.in_flight.length : 0;
        return "<tr><td>" + esc(w.worker) + "</td>" +
          '<td class="' + cls + '"><span class="dot"></span>' + word + "</td>" +
          '<td class="num">' + fmtN(w.ok|0) + "</td>" +
          '<td class="num">' + fmtN((w.failed|0)+(w.timed_out|0)) + "</td>" +
          '<td class="num">' + fmtN(inflight) + "</td>" +
          '<td class="num">' + fmtN(w.events_per_sec) + "</td>" +
          '<td class="num">' + hb + "</td></tr>";
      }).join("");
}
render(JSON.parse($("snapshot").textContent));
</script>
</body>
</html>
)HTML";

} // namespace

std::string
dashboardHtml(const std::string &snapshotJson)
{
    // '<' appears in JSON only inside strings, where \u003c means the
    // same; escaping it keeps a "</script>" in an error message from
    // ending the data block.
    std::string data;
    for (const char c : snapshotJson) {
        if (c == '<')
            data += "\\u003c";
        else
            data += c;
    }
    std::string page(kPage);
    return page.replace(page.find(kSlot), kSlot.size(), data);
}

DashboardWriter::DashboardWriter(std::string dir, Provider provider)
    : dir_(std::move(dir)), provider_(std::move(provider))
{
    std::filesystem::create_directories(dir_);
    write(true);
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!wake_.wait_for(lock, kPeriod, [this] { return stop_; })) {
            lock.unlock(); // never hold the lock across the provider
            write(false);
            lock.lock();
        }
    });
}

DashboardWriter::~DashboardWriter()
{
    stop();
}

void
DashboardWriter::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (std::exchange(stop_, true))
            return;
    }
    wake_.notify_all();
    thread_.join();
    write(false);
}

void
DashboardWriter::write(bool first)
{
    try {
        const std::string snapshot = provider_();
        writeFileAtomic(dir_ + "/snapshot.json", snapshot);
        writeFileAtomic(dir_ + "/dashboard.html", dashboardHtml(snapshot));
    } catch (const std::exception &error) {
        if (first)
            throw; // an unwritable DIR fails before the sweep starts
        TEMPO_WARN("dashboard: ", error.what()); // skip one refresh
    }
}

} // namespace tempo::fabric
