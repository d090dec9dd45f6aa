package main

import "testing"

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name                             string
		csv, json, matrix, trans, faults bool
		ok                               bool
	}{
		{name: "table", ok: true},
		{name: "csv", csv: true, ok: true},
		{name: "json", json: true, ok: true},
		{name: "matrix+transitions", matrix: true, trans: true, ok: true},
		{name: "faults", faults: true, ok: true},
		{name: "faults+csv", faults: true, csv: true, ok: true},
		{name: "csv+json", csv: true, json: true},
		{name: "csv+matrix", csv: true, matrix: true},
		{name: "csv+transitions", csv: true, trans: true},
		{name: "json+matrix", json: true, matrix: true},
		{name: "json+transitions", json: true, trans: true},
		{name: "faults+json", faults: true, json: true},
		{name: "faults+matrix", faults: true, matrix: true},
		{name: "faults+transitions", faults: true, trans: true},
		{name: "faults+csv+matrix", faults: true, csv: true, matrix: true},
	}
	for _, c := range cases {
		err := checkFlags(c.csv, c.json, c.matrix, c.trans, c.faults)
		if c.ok && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted, want rejection", c.name)
		}
	}
}
