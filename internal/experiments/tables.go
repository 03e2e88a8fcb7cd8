package experiments

import (
	"fmt"
	"io"

	"repro/internal/datagen"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/sim/machine"
	"repro/internal/sim/mem"
	"repro/internal/sysmodel"
	"repro/internal/workloads"
)

// Table1Row describes one dataset of the paper's Table 1.
type Table1Row struct {
	No          int
	Name        string
	Description string
	Generator   string
	// SimRecords/SimBytes are the simulation-scale materialization.
	SimRecords int
	SimBytes   int
}

// Table1 reproduces Table 1: the seven datasets and their generators,
// plus the simulation-scale materialization this reproduction uses.
func Table1() []Table1Row {
	l := mem.NewLayout()
	wiki := datagen.NewText(l, datagen.DefaultWiki())
	reviews := datagen.NewReviews(l, datagen.DefaultWiki(), 5)
	google := datagen.NewGraph(l, datagen.DefaultWebGraph())
	facebook := datagen.NewGraph(l, datagen.DefaultSocialGraph())
	ec := datagen.NewECommerce(l, 0xEC0, 40000, 120000)
	kv := datagen.NewKVStore(l, 0x4856, 60000, 1128)
	ds := datagen.NewTPCDS(l, 0xD5, 150000)
	return []Table1Row{
		{1, "Wikipedia Entries", "4,300,000 English articles (original)", "Text Generator of BDGS",
			len(wiki.Lines), wiki.Bytes()},
		{2, "Amazon Movie Reviews", "7,911,684 reviews (original)", "Text Generator of BDGS",
			len(reviews.Text.Lines), reviews.Text.Bytes()},
		{3, "Google Web Graph", "875,713 nodes, 5,105,039 edges (original)", "Graph Generator of BDGS",
			google.N, google.Edges() * 4},
		{4, "Facebook Social Network", "4,039 nodes, 88,234 edges (original)", "Graph Generator of BDGS",
			facebook.N, facebook.Edges() * 4},
		{5, "E-commerce Transaction Data", "order table: 4 columns; item table: 6 columns", "Table Generator of BDGS",
			ec.Orders.Rows + ec.Items.Rows, ec.Orders.Bytes() + ec.Items.Bytes()},
		{6, "ProfSearch Person Resumes", "278,956 resumes of 1128 bytes (original)", "Table Generator of BDGS",
			kv.N, kv.Bytes()},
		{7, "TPC-DS WebTable Data", "26 tables (star-schema subset modelled)", "TPC DSGen",
			ds.StoreSales.Rows, ds.StoreSales.Bytes() + ds.DateDim.Bytes() + ds.Item.Bytes() + ds.Customer.Bytes()},
	}
}

// RenderTable1 writes Table 1.
func RenderTable1(w io.Writer, rows []Table1Row) {
	t := report.Table{Title: "Table 1: data sets and generation tools",
		Headers: []string{"No", "data set", "description", "generator", "sim records", "sim bytes"}}
	for _, r := range rows {
		t.Add(r.No, r.Name, r.Description, r.Generator, r.SimRecords, r.SimBytes)
	}
	t.Render(w)
}

// Table2Row is one representative workload's characterization in the
// style of the paper's Table 2.
type Table2Row struct {
	ID         string
	Category   workloads.Category
	DataSet    string
	OutVsIn    workloads.DataRatio
	InterVsIn  workloads.DataRatio
	HasInter   bool
	System     sysmodel.Class
	CPUUtil    float64
	IOWait     float64
	WeightedIO float64
	PaperCount int
}

// Table2 reproduces Table 2: the 17 representative workloads with
// measured data behaviours and modelled system behaviours.
func Table2(s *Session) []Table2Row {
	cluster := sysmodel.DefaultCluster()
	var rows []Table2Row
	for _, p := range s.Reps() {
		b := sysmodel.Analyze(cluster, p.Run, p.Vector)
		rows = append(rows, Table2Row{
			ID:         p.Workload.ID,
			Category:   p.Workload.Category,
			DataSet:    p.Workload.DataSet,
			OutVsIn:    workloads.ClassifyRatio(p.Run.OutBytes, p.Run.InBytes),
			InterVsIn:  workloads.ClassifyRatio(p.Run.InterBytes, p.Run.InBytes),
			HasInter:   p.Run.InterBytes > 0,
			System:     b.Class,
			CPUUtil:    b.CPUUtil,
			IOWait:     b.IOWait,
			WeightedIO: b.WeightedIOTime,
			PaperCount: workloads.RepresentedCounts[p.Workload.ID],
		})
	}
	return rows
}

// RenderTable2 writes Table 2.
func RenderTable2(w io.Writer, rows []Table2Row) {
	t := report.Table{Title: "Table 2: representative big data workloads (measured)",
		Headers: []string{"ID", "category", "data set", "output", "intermediate",
			"system", "cpu%", "iowait%", "wIO", "represents"}}
	for _, r := range rows {
		t.Add(r.ID, r.Category.String(), r.DataSet,
			"Output"+r.OutVsIn.String(), "Inter"+r.InterVsIn.String(),
			r.System.String(), r.CPUUtil*100, r.IOWait*100, r.WeightedIO, r.PaperCount)
	}
	t.Render(w)
}

// Table3 reproduces Table 3: the node configuration of the modelled
// Xeon E5645.
func Table3() report.Table {
	cfg := machine.XeonE5645()
	t := report.Table{Title: "Table 3: node configuration (modelled)",
		Headers: []string{"component", "value"}}
	t.Add("CPU type", cfg.Name)
	t.Add("Number of cores", fmt.Sprintf("%d cores@%.2fG", cfg.Cores, cfg.FreqHz/1e9))
	t.Add("L1 DCache", fmt.Sprintf("%d x %d KB", cfg.Cores, cfg.L1D.Size>>10))
	t.Add("L1 ICache", fmt.Sprintf("%d x %d KB", cfg.Cores, cfg.L1I.Size>>10))
	t.Add("L2 Cache", fmt.Sprintf("%d x %d KB", cfg.Cores, cfg.L2.Size>>10))
	t.Add("L3 Cache", fmt.Sprintf("%d MB", cfg.L3.Size>>20))
	return t
}

// Table4Result is the branch-prediction comparison of Table 4 plus the
// measured misprediction ratios the surrounding text reports (7.8% on
// the Atom D510 vs 2.8% on the Xeon E5645).
type Table4Result struct {
	Mechanisms   report.Table
	AtomAvg      float64
	XeonAvg      float64
	PerWorkload  report.Table
	PaperAtomAvg float64
	PaperXeonAvg float64
}

// Table4 reproduces Table 4 and the §5.1 misprediction measurement.
func Table4(s *Session) Table4Result {
	res := Table4Result{PaperAtomAvg: 0.078, PaperXeonAvg: 0.028}
	res.Mechanisms = report.Table{Title: "Table 4: branch prediction mechanisms",
		Headers: []string{"component", "D510", "E5645"}}
	res.Mechanisms.Add("Conditional jumps",
		"two-level adaptive predictor with a global history table",
		"hybrid predictor combining a two-level predictor and a loop counter")
	res.Mechanisms.Add("Indirect jumps and calls", "Not", "two-level predictor")
	res.Mechanisms.Add("BTB entries", 128, 8192)
	res.Mechanisms.Add("Misprediction penalty", "15 cycles", "11-13 cycles")

	res.PerWorkload = report.Table{Title: "branch misprediction ratio per workload",
		Headers: []string{"workload", "Atom D510", "Xeon E5645"}}
	xeon := s.Reps()
	atom := s.AtomReps()
	for i := range xeon {
		ax := atom[i].Vector[metrics.BrMispredictRatio]
		xx := xeon[i].Vector[metrics.BrMispredictRatio]
		res.AtomAvg += ax
		res.XeonAvg += xx
		res.PerWorkload.Add(xeon[i].Workload.ID, ax*100, xx*100)
	}
	res.AtomAvg /= float64(len(xeon))
	res.XeonAvg /= float64(len(xeon))
	return res
}
