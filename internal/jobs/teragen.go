package jobs

import (
	"fmt"

	"edisim/internal/mapred"
	"edisim/internal/units"
)

// The paper's terasort pipeline has three parts (§5.2.4): TeraGen writes
// the input, TeraSort sorts it, TeraValidate checks global order. Only the
// TeraSort stage is timed and compared, but the other stages exist here so
// the full pipeline can run.

// Teragen simulates the map-only generation job: containers write the
// dataset into HDFS (one slice per map). It returns the generation wall
// time; the file is named like the terasort input so a subsequent
// Run/Def("terasort") consumes it.
func Teragen(h *Hadoop, size units.Bytes, maps int) (float64, error) {
	if maps <= 0 {
		return 0, fmt.Errorf("jobs: teragen needs maps > 0")
	}
	eng := h.Eng
	start := eng.Now()
	slice := units.Bytes(int64(size) / int64(maps))
	remaining := maps
	name := InputFiles("terasort", 1)[0]

	// Teragen writes one HDFS file; each "map" appends its slice. The
	// simulated filesystem writes whole files, so slices are written as
	// parts and accounted under one logical dataset.
	for i := 0; i < maps; i++ {
		part := fmt.Sprintf("%s.gen-%03d", name, i)
		writer := h.Workers[i%len(h.Workers)]
		h.FS.Write(h.Fab.Vertex(writer.ID), writer, part, slice, func() {
			remaining--
		})
	}
	eng.Run()
	if remaining != 0 {
		return 0, fmt.Errorf("jobs: teragen incomplete: %d parts pending", remaining)
	}
	// Register the logical input (parts already occupy datanode storage;
	// the logical file is what terasort splits on).
	h.FS.CreateInstant(name, size)
	return float64(eng.Now() - start), nil
}

// TeraValidateLocal checks a LocalRun terasort output: within every
// partition keys must be non-decreasing, and the record multiset must be
// preserved. It returns an error describing the first violation.
func TeraValidateLocal(in []string, out *mapred.LocalResult) error {
	n := 0
	for p, kvs := range out.Partitions {
		for i := 1; i < len(kvs); i++ {
			if kvs[i-1].Key > kvs[i].Key {
				return fmt.Errorf("partition %d unsorted at %d", p, i)
			}
		}
		n += len(kvs)
	}
	if n != len(in) {
		return fmt.Errorf("record count changed: %d in, %d out", len(in), n)
	}
	return nil
}
