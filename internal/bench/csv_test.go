package bench

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"hsfsim/internal/qaoa"
)

// parseCSV reads back what a writer produced and checks row shape.
func parseCSV(t *testing.T, buf *bytes.Buffer, wantCols int) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("csv has %d rows, want header + data", len(rows))
	}
	for i, r := range rows {
		if len(r) != wantCols {
			t.Fatalf("row %d has %d columns, want %d", i, len(r), wantCols)
		}
	}
	return rows
}

func TestFig3AndCascadeCSV(t *testing.T) {
	points, err := Fig3Series(4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFig3CSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf, 3)
	if rows[0][0] != "depth" || rows[1][1] != "2" {
		t.Fatalf("fig3 csv content wrong: %v", rows[:2])
	}

	cpoints, err := CascadeSeries(3)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteCascadesCSV(&buf, cpoints); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 4)
}

func TestTableCSVs(t *testing.T) {
	specs := qaoa.ScaledInstances()[:2]
	t2, err := RunTable2(specs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTable2CSV(&buf, t2); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf, 11)
	if !strings.Contains(rows[1][0], "q16") {
		t.Fatalf("table2 csv content: %v", rows[1])
	}

	spec := qaoa.InstanceSpec{Name: "csv-tiny", SizeA: 4, SizeB: 4, PIntra: 0.8, PInter: 0.4, Seed: 6}
	t1row, err := RunTable1Instance(spec, RunConfig{MaxAmplitudes: 64, Timeout: 20 * time.Second, Repetitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteTable1CSV(&buf, []*Table1Row{t1row}); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 14)
}

func TestStudyCSVs(t *testing.T) {
	var buf bytes.Buffer

	lay, err := LayerSeries(qaoa.InstanceSpec{Name: "l", SizeA: 4, SizeB: 4, PIntra: 0.8, PInter: 0.4, Seed: 2}, 2, 64, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteLayersCSV(&buf, lay); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 5)

	buf.Reset()
	mb, err := ManybodySeries(6, 3, 64, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteManybodyCSV(&buf, mb); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 6)

	buf.Reset()
	cases, err := DefaultBackendCases()
	if err != nil {
		t.Fatal(err)
	}
	bk, err := RunBackends(cases[:1])
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBackendsCSV(&buf, bk); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 8)

	buf.Reset()
	sup, err := RunSupremacy(DefaultSupremacyCases()[:1], 64, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSupremacyCSV(&buf, sup); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 9)
}
