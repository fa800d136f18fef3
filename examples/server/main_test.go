package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"sparta"
)

// TestLiveIngestThenSearch drives the live backend's two handlers: a
// document POSTed to /ingest is returned by /search?algo=live.
func TestLiveIngestThenSearch(t *testing.T) {
	live, err := sparta.OpenLive(t.TempDir(), sparta.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	s := &server{
		live:      live,
		searchers: map[string]*sparta.Searcher{"live": sparta.NewSearcher(live, sparta.SearcherConfig{})},
	}

	rec := httptest.NewRecorder()
	s.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/ingest?doc=sparta,retrieval,sparta", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
	}
	var ing ingestResponse
	if err := json.NewDecoder(rec.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if ing.Docs != 1 {
		t.Fatalf("ingest: docs = %d, want 1", ing.Docs)
	}

	term, ok := live.Lookup("sparta")
	if !ok {
		t.Fatal("ingested term not in the live dictionary")
	}
	rec = httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/search?algo=live&mode=exact&q=t%d", term), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("search: status %d: %s", rec.Code, rec.Body)
	}
	var res searchResponse
	if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || res.Results[0].Doc != ing.Doc {
		t.Fatalf("search: results %v, want the ingested doc %d", res.Results, ing.Doc)
	}
}
